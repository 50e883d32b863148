# Tier-1 verification gate (documented in README.md): every change must
# keep `make verify` green before merging.
GO ?= go

.PHONY: verify vet lint build test race bench eval evalfull chaos loc

verify: vet lint build race

vet:
	$(GO) vet ./...

# lint runs the repo's own invariant-enforcing analyzers (kloclint):
# determinism hygiene, errno discipline, trace-name catalog membership,
# alloc/free pairing and RNG stream discipline (rngflow) — DESIGN.md
# §10 — plus the marker audit.
lint:
	$(GO) run ./cmd/kloclint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# eval regenerates eval_quick.txt from two back-to-back runs and fails
# if they differ: the committed evaluation is only meaningful if the
# simulation is byte-stable at a fixed seed.
eval:
	$(GO) run ./cmd/klocbench -exp all -quick > .eval.run1.tmp
	$(GO) run ./cmd/klocbench -exp all -quick > .eval.run2.tmp
	@cmp .eval.run1.tmp .eval.run2.tmp || \
		{ rm -f .eval.run1.tmp .eval.run2.tmp; \
		  echo "eval: output not byte-stable across identical runs"; exit 1; }
	mv .eval.run1.tmp eval_quick.txt
	rm -f .eval.run2.tmp

# evalfull prints the full-fidelity evaluation to stdout (slow).
evalfull:
	$(GO) run ./cmd/klocbench -exp all

# chaos runs the fixed-seed quick chaos campaign (DESIGN.md §12); an
# invariant violation exits 1 and leaves CHAOS_repro_*.json behind for
# `klocbench -exp chaos -replay <file>`.
chaos:
	$(GO) run ./cmd/klocbench -exp chaos -quick -chaos-out BENCH_chaos.json

# loc prints the simulator module's non-test Go line count: tracked
# *.go files outside bench/ and testdata/, excluding _test.go. Run it
# at the parent and at the change (new files staged) for the net
# non-test line delta each change states.
loc:
	@git ls-files '*.go' | grep -Ev '_test\.go$$|(^|/)testdata/|^bench/' | xargs cat | wc -l
