// Package fixture proves the module-analyzer want harness fails
// loudly for rngflow: the expectations below are deliberately wrong,
// and the meta test asserts every mismatch is reported. It is never
// checked for zero problems the way the other fixtures are.
package fixture

import "kloc/internal/sim"

// FromLiteral really triggers the composite-literal diagnostic, but
// the pattern below does not match it.
func FromLiteral() *sim.RNG {
	return &sim.RNG{} // want "this pattern matches nothing"
}

// Draw is clean — drawing from a parameter stream is a plain use —
// so the expectation below is a phantom the harness must flag.
func Draw(r *sim.RNG) uint64 {
	return r.Uint64() // want "phantom rngflow diagnostic expected here"
}
