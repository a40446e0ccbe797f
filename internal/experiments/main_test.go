package experiments

import (
	"os"
	"testing"

	"simmr/internal/plan"
	"simmr/internal/plan/plantest"
)

// TestMain checks every shortcut the run plan takes in this package's
// tests against a straight replay (plantest).
func TestMain(m *testing.M) {
	plan.Settled = plantest.Shortcuts.Settle
	os.Exit(plantest.Shortcuts.Verdict(m.Run()))
}
