// Package fixture carries deliberate errnoflow violations for the
// interprocedural analyzer tests; the go tool never builds testdata
// trees. The fixture/ import path opts the package into the errno
// boundary scope.
package fixture

import (
	"errors"
	"fmt"
	"strconv"

	"kloc/internal/fault"
)

// Naked constructs the error at the boundary with no errno cause.
func Naked() error {
	return fmt.Errorf("boom") // want "fmt.Errorf without %w severs the errno chain"
}

// Anon launders through errors.New.
func Anon() error {
	return errors.New("anon") // want "errors.New creates an anonymous error"
}

// ViaVar flows the naked error through a local before returning it.
func ViaVar() error {
	err := fmt.Errorf("no cause")
	return err // want "fmt.Errorf without %w severs the errno chain"
}

// TwoFaults produces two diagnostics on one return line: the harness
// matches one `// want` pattern per diagnostic.
func TwoFaults() (error, error) {
	return errors.New("left"), fmt.Errorf("right") // want "errors.New creates an anonymous error" "fmt.Errorf without %w severs the errno chain"
}

// helper is unexported but feeds the exported boundary below, so it
// is boundary-reaching and the report lands on its own return site.
func helper() error {
	return fmt.Errorf("inner failure") // want "fmt.Errorf without %w severs the errno chain"
}

// Outer forwards helper's dirt: suppressed here, reported in helper.
func Outer() error {
	return helper()
}

// External forwards an error from outside the module untouched.
func External() error {
	_, err := strconv.Atoi("nope")
	return err // want "error from external call Atoi not wrapped with a fault errno"
}

// Wrapped derives from the vocabulary through %w: no diagnostic.
func Wrapped() error {
	return fmt.Errorf("op failed: %w", fault.EINVAL)
}

// FormattedCause only formats the naked error with %v and wraps a
// fault errno with %w: no diagnostic.
func FormattedCause() error {
	_, err := strconv.Atoi("nope")
	return fmt.Errorf("parse: %v: %w", err, fault.EINVAL)
}

// WrappedCause wraps the naked error itself with %w beside a formatted
// errno: the chain carries no errno.
func WrappedCause() error {
	_, err := strconv.Atoi("nope")
	return fmt.Errorf("parse: %v: %w", fault.EINVAL, err) // want "error from external call Atoi not wrapped with a fault errno"
}

// Joined derives from two errnos: no diagnostic.
func Joined() error {
	return errors.Join(fault.EINVAL, fault.ENOMEM)
}

// Passthrough returns a caller-supplied error: unknown provenance
// stays quiet. No diagnostic.
func Passthrough(err error) error {
	return err
}

// Sunk documents the deliberate anonymous error with the marker.
func Sunk() error {
	//klocs:ignore-errno fixture: decorative error, never fault-counted
	return errors.New("decorative")
}
