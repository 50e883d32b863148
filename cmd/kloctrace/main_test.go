package main

import "testing"

// TestCheckFlags: the flag defaults pass, and every value that cannot
// produce a trace is a usage error instead of a panic or an empty or
// all-zero table.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		slices, durationMS, scale int
		ok                        bool
	}{
		{"defaults", defaultSlices, defaultDurationMS, defaultScale, true},
		{"one slice of one ms", 1, 1, 1, true},
		{"zero slices", 0, defaultDurationMS, defaultScale, false},
		{"negative slices", -2, defaultDurationMS, defaultScale, false},
		{"zero duration", defaultSlices, 0, defaultScale, false},
		{"negative duration", defaultSlices, -5, defaultScale, false},
		{"zero scale", defaultSlices, defaultDurationMS, 0, false},
		{"negative scale", defaultSlices, defaultDurationMS, -3, false},
	} {
		err := checkFlags(tc.slices, tc.durationMS, tc.scale)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%d, %d, %d) = %v, want ok=%v",
				tc.name, tc.slices, tc.durationMS, tc.scale, err, tc.ok)
		}
	}
}
