package analysis

import (
	"strings"
	"testing"
)

// The shard-isolation fixtures: each carries deliberate violations
// plus the clean shapes the analyzer must not flag.
func TestOwnershipFixture(t *testing.T) { checkModuleFixture(t, Ownership, "ownership") }
func TestRNGFlowFixture(t *testing.T)   { checkModuleFixture(t, RNGFlow, "rngflow") }

// metaModuleFixture asserts the want harness fails in both directions
// for a module analyzer (the wantmeta pattern): the fixture carries
// one real diagnostic under a non-matching pattern and one phantom
// expectation, so exactly three problems must surface — the
// unexpected diagnostic and both unmatched wants.
func metaModuleFixture(t *testing.T, a *ModuleAnalyzer, name string) {
	t.Helper()
	problems, err := CheckModuleExpectations([]*Package{loadFixturePkg(t, name)}, a)
	if err != nil {
		t.Fatalf("CheckModuleExpectations: %v", err)
	}
	if len(problems) != 3 {
		t.Fatalf("got %d problems, want 3:\n%s", len(problems), strings.Join(problems, "\n"))
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{
		"unexpected diagnostic",
		`"this pattern matches nothing"`,
		"phantom",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems lack %s:\n%s", want, joined)
		}
	}
}

func TestOwnershipWantHarness(t *testing.T) { metaModuleFixture(t, Ownership, "ownershipmeta") }
func TestRNGFlowWantHarness(t *testing.T)   { metaModuleFixture(t, RNGFlow, "rngflowmeta") }
