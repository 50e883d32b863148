// Package fixture carries deliberate errnocheck violations for the
// analyzer tests; the go tool never builds testdata trees.
package fixture

import "errors"

var errBusy = errors.New("EBUSY")

func mayFail() error { return errBusy }

func allocate() (int, error) { return 0, errBusy }

type device struct{}

func (d *device) Submit() error { return errBusy }

func dropsError() {
	mayFail() // want "error result of mayFail discarded"
}

func dropsMethodError(d *device) {
	d.Submit() // want "error result of device.Submit discarded"
}

func blanksError() int {
	n, _ := allocate() // want "error result of allocate assigned to _"
	return n
}

func blanksSingleError() {
	_ = mayFail() // want "error result of mayFail assigned to _"
}

func deferred() {
	defer mayFail() // want "discarded by defer"
}

func inGoroutine() {
	go mayFail() // want "discarded by go statement"
}

// propagates handles every error: no diagnostics.
func propagates() error {
	if err := mayFail(); err != nil {
		return err
	}
	n, err := allocate()
	if err != nil {
		return err
	}
	_ = n
	return nil
}

// sunkExplicitly documents the deliberate drop with the marker.
func sunkExplicitly() {
	//klocs:ignore-errno fixture: best-effort warmup, failure is benign
	mayFail()
}
