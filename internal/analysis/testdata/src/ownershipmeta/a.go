// Package fixture proves the module-analyzer want harness fails
// loudly for ownership: the expectations below are deliberately
// wrong, and the meta test asserts every mismatch is reported. It is
// never checked for zero problems the way the other fixtures are.
package fixture

var leak int

// Grow really writes leak after initialization, but the pattern below
// does not match the diagnostic.
func Grow() {
	leak++ // want "this pattern matches nothing"
}

// frozen is only written by its initializer, so no diagnostic fires:
// the expectation below is a phantom the harness must flag.
var frozen = 7 // want "phantom ownership diagnostic expected here"
