package harness

import (
	"errors"
	"fmt"
	"testing"

	"kloc/internal/fault"
	"kloc/internal/sim"
	"kloc/internal/workload"
)

// TestWorkloadSetupRejectsUnsupportedSizes: every workload at extreme
// scale divisors, and rocksdb with THP heaps, either runs or fails
// setup with EINVAL — a user-reachable size never panics.
func TestWorkloadSetupRejectsUnsupportedSizes(t *testing.T) {
	type tc struct {
		workload string
		scaleDiv int
		huge     bool
	}
	var cases []tc
	for _, name := range workload.Names() {
		for _, div := range []int{1000, 100000} {
			cases = append(cases, tc{workload: name, scaleDiv: div})
		}
	}
	cases = append(cases, tc{workload: "rocksdb", scaleDiv: 64, huge: true})
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/div=%d/huge=%v", c.workload, c.scaleDiv, c.huge), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			_, err := Run(RunConfig{
				PolicyName: "klocs",
				Workload:   c.workload,
				ScaleDiv:   c.scaleDiv,
				WLConfig:   workload.Config{HugePages: c.huge},
				Duration:   sim.Millisecond,
			})
			if err != nil && !errors.Is(err, fault.EINVAL) {
				t.Fatalf("got %v, want success or EINVAL", err)
			}
		})
	}
}
