// Package fixture carries deliberate tracereach violations for the
// module analyzer tests; the go tool never builds testdata
// trees. It imports the real trace package so Emit resolves to the
// real method.
package fixture

import "kloc/internal/trace"

// The catalog under audit: constants of type trace.Name.
const (
	evAlive  trace.Name = "fixture.alive"
	evDead   trace.Name = "fixture.dead"   // want "has no reachable Tracer.Emit site"
	evBuried trace.Name = "fixture.buried" // want "has no reachable Tracer.Emit site"
	//klocs:ignore-tracereach fixture: reserved for the in-flight subsystem
	evReserved trace.Name = "fixture.reserved"
	// A serving-plane-style event that was cataloged but never wired to
	// the balancer: exactly the regression the cluster lb.* constants
	// would hit if an Emit call were dropped.
	evLBStale trace.Name = "fixture.lb.stale" // want "has no reachable Tracer.Emit site"
	// Emitted only from a closure: the literal is reachable through
	// the function that takes it.
	evLater trace.Name = "fixture.later"
)

// Publish is exported, so its Emit sites are reachable and keep
// evAlive and evLater live.
func Publish(t *trace.Tracer) {
	t.Emit(evAlive, 0, 0, 0, "fixture", 0, 0)
	defer func() {
		t.Emit(evLater, 0, 0, 0, "fixture", 0, 0)
		t.Emit("fixture.late", 0, 0, 0, "fixture", 0, 0) // want "unregistered event name \"fixture.late\""
	}()
}

// buried emits evBuried, but nothing reachable calls it: an Emit site
// in dead code does not keep its catalog entry alive. Its names are
// still checked.
func buried(t *trace.Tracer) {
	t.Emit(evBuried, 0, 0, 0, "fixture", 0, 0)
	t.Emit("fixture.bogus", 0, 0, 0, "fixture", 0, 0) // want "unregistered event name \"fixture.bogus\""
}
