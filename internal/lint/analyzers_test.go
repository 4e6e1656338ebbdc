package lint_test

import (
	"testing"

	"radionet/internal/lint"
)

func TestDeterminism(t *testing.T)    { runAnalyzer(t, lint.Determinism, "determ") }
func TestRNGDiscipline(t *testing.T)  { runAnalyzer(t, lint.RNGDiscipline, "rngfix") }
func TestRegisterInit(t *testing.T)   { runAnalyzer(t, lint.RegisterInit, "reginit") }
func TestHookNeutrality(t *testing.T) { runAnalyzer(t, lint.HookNeutrality, "hookfix") }
func TestHotPath(t *testing.T)        { runAnalyzer(t, lint.HotPath, "hotfix") }

// TestDeadExports runs the whole-module dead-export check over the deadexp
// fixture, with its bench package loaded as a callers-only module.
func TestDeadExports(t *testing.T) {
	res := loadFixture(t, "deadexp", "deadexp/user", "deadexp/cmd")
	bench := loadFixture(t, "deadexp/bench")
	checkWants(t, res, lint.CheckDeadExports(res, bench))
}
