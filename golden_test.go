package kloc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"kloc"
)

// goldenRuns pins the simulated output of five small traced and
// sanitized runs by SHA-256 digest. Between them they allocate kernel
// objects from per-context arenas (klocs), pinned slab caches (the
// nimble family) and the page allocator (all five), through both the
// filesystem and the network stack. The Optane run covers the
// Memory-Mode platform: its L4 caches, AutoNUMA and a mid-run socket
// move (at 10 or 30 ms it would migrate no pages across sockets, so it
// runs for 60). Same-seed tests only compare two
// runs of the current code; these digests compare it with a recorded
// copy, so a refactor that claims byte-identical output is checked
// here. A change that moves the output on purpose updates the digests
// and says why.
var goldenRuns = []struct {
	policy, workload string
	// optane selects the Memory-Mode platform (else two-tier), moveFrac
	// the mid-run socket move (0 = none) and ms the run length.
	optane   bool
	moveFrac float64
	ms       int
	// result hashes the Result fields bench's resultDigest covers;
	// trace the Chrome export plus the per-event summary; san the
	// sanitizer report.
	result, trace, san string
}{
	{"klocs", "rocksdb", false, 0, 10,
		"b3fc03455cfeeb595353b5699c552455198a6dee1b07cd18cd4fa6a838c872a1",
		"7741cad0d8c1f2fce6f348ed988ee1e400d4eb73987001bfc750fd5f5300698b",
		"40b789e315e28c1376f252d524987b1ea5a7a63a6bda5bcb444ec96333a0c4b0"},
	{"klocs", "redis", false, 0, 10,
		"673d5ada1ae00b401228cb60f2e63c35ce31ffe19f75ed7e259a0afa3c8e33fc",
		"b534a6612fc991f804175cf8ea8528dcbdee6f7492216fab3cbbd67e12ff36c7",
		"e1f7fb4c4646bfa6bbbc5dba9a003ae9d35aa29c6677331de34102895cc4c029"},
	{"nimble++", "redis", false, 0, 10,
		"7a91d76fed7fca643101f7c4f13b5efb84d78b176a8990d8051f43561f32404a",
		"32fb069283df8d6a8a6e13338f598b55ae2db860387b9306b715418e442ff3b1",
		"e1f7fb4c4646bfa6bbbc5dba9a003ae9d35aa29c6677331de34102895cc4c029"},
	{"nimble", "filebench", false, 0, 10,
		"dafa2b12905a6cad9ad0bedd15690a62fb5d8c1d1324fb22826f29a89b330890",
		"758044f69b84aa378944562166327b28e97b345da655df76596a2b335a493416",
		"58d3a2ac24c0da4005ec8e79f44f2bf2704e0b6640a4f05b12ea735a62c808d2"},
	{"autonuma+klocs", "rocksdb", true, 0.1, 60,
		"c6a33b22922daf1793e738b67e946e2d78e19ffc4039b450e26f4742bcb10b0b",
		"1ca2d61786c4af6cbd5df228ecd94abfeaa1db941a77aa07b9e35fcf58d3ba26",
		"e6babbcc9ab4e01f1dec543e99953c2e52ac0742464c695d7feeae6fc9e72565"},
}

func TestGoldenRunDigests(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.policy+"/"+g.workload, func(t *testing.T) {
			platform := kloc.TwoTier
			if g.optane {
				platform = kloc.Optane
			}
			res, err := kloc.Run(kloc.RunConfig{
				PolicyName:     g.policy,
				Workload:       g.workload,
				Platform:       platform,
				MoveTaskAtFrac: g.moveFrac,
				ScaleDiv:       256,
				Duration:       kloc.Duration(g.ms) * kloc.Millisecond,
				Seed:           42,
				Trace:          &kloc.TraceConfig{},
				Sanitize:       true,
			})
			if err != nil {
				t.Fatal(err)
			}
			check := func(what, got, want string) {
				t.Helper()
				if got != want {
					t.Errorf("%s digest = %s, want %s", what, got, want)
				}
			}
			check("result", resultDigest(t, res), g.result)
			h := sha256.New()
			if err := res.Trace.WriteChrome(h); err != nil {
				t.Fatal(err)
			}
			h.Write(mustJSON(t, res.TraceStats))
			check("trace", hex.EncodeToString(h.Sum(nil)), g.trace)
			check("sanitizer", digest(mustJSON(t, res.Sanitize)), g.san)
		})
	}
}

// resultDigest mirrors bench's resultDigest: every Result field except
// the accounting meters and the optional planes' state, plus a summary
// of the per-operation cost distribution, whose samples are
// unexported.
func resultDigest(t *testing.T, res *kloc.Result) string {
	t.Helper()
	c := *res
	c.Perf = kloc.Result{}.Perf
	c.Trace = nil
	c.TraceStats = kloc.TraceStats{}
	c.Sanitize = nil
	d := &res.OpCost
	return digest(mustJSON(t, struct {
		Result kloc.Result
		OpCost [6]float64
	}{c, [6]float64{float64(d.Count()), d.Mean(), d.Min(), d.Max(), d.Quantile(0.5), d.Quantile(0.99)}}))
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
