package lint_test

import (
	"testing"

	"radionet/internal/lint"
	"radionet/internal/lint/linttest"
)

func TestDeterminism(t *testing.T)    { linttest.Run(t, lint.Determinism, "determ") }
func TestRNGDiscipline(t *testing.T)  { linttest.Run(t, lint.RNGDiscipline, "rngfix") }
func TestRegisterInit(t *testing.T)   { linttest.Run(t, lint.RegisterInit, "reginit") }
func TestHookNeutrality(t *testing.T) { linttest.Run(t, lint.HookNeutrality, "hookfix") }
func TestHotPath(t *testing.T)        { linttest.Run(t, lint.HotPath, "hotfix") }
