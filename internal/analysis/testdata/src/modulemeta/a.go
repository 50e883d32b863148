// Package fixture proves the module-analyzer want harness fails
// loudly: the expectations below are deliberately wrong, and the meta
// test asserts CheckModuleExpectations reports every mismatch. It is
// never checked for zero problems the way the other fixtures are.
package fixture

import "kloc/internal/trace"

const evUsed trace.Name = "meta.used"

// Publish really triggers the unregistered-name diagnostic, but the
// pattern below does not match it.
func Publish(t *trace.Tracer) {
	t.Emit("meta.usde", 0, 0, 0, "meta", 0, 0) // want "this pattern matches nothing"
}

// Clean emits a catalog constant, so the expectation below is a
// phantom the harness must flag.
func Clean(t *trace.Tracer) {
	t.Emit(evUsed, 0, 0, 0, "meta", 0, 0) // want "phantom tracereach diagnostic expected here"
}
