// Package fixture carries deliberate violations of tracereach's name
// check: every Tracer.Emit site must pass a constant from the catalog.
// Every catalog entry here has a reachable Emit site, so only name
// diagnostics are expected. The go tool never builds testdata trees;
// the fixture imports the real trace package so Emit resolves to the
// real method.
package fixture

import "kloc/internal/trace"

const (
	evSlab trace.Name = "fixture.slab"
	// Emitted from several sites, one of them typo'd: the entry stays
	// alive through the others, so only the name check sees the typo.
	evHealth trace.Name = "fixture.health"
)

// Emits is exported, so its sites are reachable and keep evSlab live.
func Emits(t *trace.Tracer) {
	t.Emit(evSlab, 0, 1, 2, "inode", 0, 64)              // registered constant: ok
	t.Emit("fixture.bogus", 0, 1, 2, "inode", 0, 64)     // want "unregistered event name \"fixture.bogus\""
	t.Emit("fixture.slab "+"x", 0, 1, 2, "inode", 0, 64) // want "unregistered event name"
	name := evSlab
	t.Emit(name, 0, 1, 2, "inode", 0, 64) // want "non-constant event name"
}

// Health emits evHealth from two sites, the second typo'd.
func Health(t *trace.Tracer) {
	t.Emit(evHealth, 0, 0, 0, "down", 0, 0)
	t.Emit("fixture.healht", 0, 0, 0, "recover", 0, 0) // want "unregistered event name \"fixture.healht\""
}
