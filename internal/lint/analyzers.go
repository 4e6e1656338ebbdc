package lint

// All returns every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		HookNeutrality,
		HotPath,
		RegisterInit,
		RNGDiscipline,
	}
}
