package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"radionet/internal/graph"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// FaultSpec is one parsed value of the campaign's fault axis: a
// whole-network fault scenario realized per trial as a radio.FaultPlan.
// The zero value (and the explicit "none" spec) is the unfaulted baseline.
type FaultSpec struct {
	// Spec is the canonical spec string ("" only on unfaulted campaigns;
	// the explicit baseline keeps "none").
	Spec string
	// CrashFrac of the nodes crash at round CrashRound.
	CrashFrac  float64
	CrashRound int64
	// JamFrac of the nodes transmit noise with probability JamP per round.
	JamFrac float64
	JamP    float64
	// LossP is every node's per-reception drop probability.
	LossP float64
}

// None reports whether the spec carries no faults.
func (fs *FaultSpec) None() bool {
	return fs.CrashFrac == 0 && fs.JamFrac == 0 && fs.LossP == 0
}

// ParseFaultSpec parses a fault spec: '+'-joined terms of
//
//	crash:F@R — fraction F of the nodes crash at round R
//	jam:F:pP  — fraction F of the nodes jam with per-round probability P
//	loss:P    — every node drops each reception with probability P
//	none      — explicit unfaulted baseline (keeps the campaign's schema)
//
// e.g. "crash:0.3@50", "jam:0.05:p0.2", "crash:0.2@100+loss:0.1".
// Fractions must be in (0, 1), probabilities in (0, 1].
func ParseFaultSpec(s string) (FaultSpec, error) {
	spec := strings.TrimSpace(s)
	fs := FaultSpec{Spec: spec}
	fail := func(format string, args ...any) (FaultSpec, error) {
		return FaultSpec{}, fmt.Errorf("campaign: fault spec %q: %s", spec, fmt.Sprintf(format, args...))
	}
	if spec == "none" {
		return fs, nil
	}
	frac := func(v string) (float64, error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, err
		}
		// Zero is rejected too: a fraction-0 term would silently be a
		// no-op (and dodge duplicate-term detection) — "none" is the
		// explicit way to spell an unfaulted cell. Spelled as a positive
		// match so NaN (incomparable, so it dodges every exclusion test)
		// is rejected rather than accepted.
		if !(f > 0 && f < 1) {
			return 0, fmt.Errorf("fraction %v outside (0, 1)", f)
		}
		return f, nil
	}
	prob := func(v string) (float64, error) {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, err
		}
		// Positive match, so NaN is rejected (see frac).
		if !(p > 0 && p <= 1) {
			return 0, fmt.Errorf("probability %v outside (0, 1]", p)
		}
		return p, nil
	}
	for _, term := range strings.Split(spec, "+") {
		kind, rest, _ := strings.Cut(term, ":")
		var err error
		switch kind {
		case "crash":
			if fs.CrashFrac != 0 {
				return fail("duplicate crash term")
			}
			f, at, ok := strings.Cut(rest, "@")
			if !ok {
				return fail("crash term %q: want crash:F@R", term)
			}
			if fs.CrashFrac, err = frac(f); err != nil {
				return fail("crash term %q: %v", term, err)
			}
			if fs.CrashRound, err = strconv.ParseInt(at, 10, 64); err != nil || fs.CrashRound < 0 {
				return fail("crash term %q: bad round %q", term, at)
			}
		case "jam":
			if fs.JamFrac != 0 {
				return fail("duplicate jam term")
			}
			f, pPart, ok := strings.Cut(rest, ":")
			if !ok || !strings.HasPrefix(pPart, "p") {
				return fail("jam term %q: want jam:F:pP", term)
			}
			if fs.JamFrac, err = frac(f); err != nil {
				return fail("jam term %q: %v", term, err)
			}
			if fs.JamP, err = prob(strings.TrimPrefix(pPart, "p")); err != nil {
				return fail("jam term %q: %v", term, err)
			}
		case "loss":
			if fs.LossP != 0 {
				return fail("duplicate loss term")
			}
			if fs.LossP, err = prob(rest); err != nil {
				return fail("loss term %q: %v", term, err)
			}
		default:
			return fail("unknown term %q (known: crash jam loss none)", term)
		}
	}
	if fs.None() {
		return fail("no effective faults (use \"none\" for an explicit baseline)")
	}
	return fs, nil
}

// Plan realizes the spec on g: fault sites are chosen deterministically
// from seed (so the same trial seed always hits the same nodes, at any
// worker count), never selecting a protected node — the campaign protects
// the broadcast source, whose crash would make the completion target
// vacuous. Returns nil for an unfaulted spec.
func (fs *FaultSpec) Plan(g *graph.Graph, seed uint64, protect ...int) *radio.FaultPlan {
	if fs.None() {
		return nil
	}
	n := g.N()
	plan := radio.NewFaultPlan(n, seed)
	prot := make(map[int]bool, len(protect))
	for _, v := range protect {
		prot[v] = true
	}
	sites := rng.New(seed).Fork(0x517e5)
	pick := func(fraction float64, stream uint64) []int {
		if fraction == 0 {
			return nil // absent term: skip the O(n) permutation
		}
		k := int(fraction * float64(n))
		if max := n - len(prot); k > max {
			k = max
		}
		chosen := make([]int, 0, k)
		for _, v := range sites.Fork(stream).Perm(n) {
			if len(chosen) == k {
				break
			}
			if prot[v] {
				continue
			}
			chosen = append(chosen, v)
		}
		return chosen
	}
	for _, v := range pick(fs.CrashFrac, 1) {
		plan.Crash(v, fs.CrashRound)
	}
	for _, v := range pick(fs.JamFrac, 2) {
		plan.Jam(v, fs.JamP)
	}
	if fs.LossP > 0 {
		for v := 0; v < n; v++ {
			plan.Loss(v, fs.LossP)
		}
	}
	return plan
}

// TrialPlan is Plan with the site/coin seed derived from a trial seed the
// campaign convention's way. It is the single derivation point shared by
// the campaign executor and cmd/radiosim, so the same (spec, trial seed)
// realizes the same fault scenario in both tools.
func (fs *FaultSpec) TrialPlan(g *graph.Graph, trialSeed uint64, protect ...int) *radio.FaultPlan {
	return fs.Plan(g, rng.New(trialSeed).Fork(0xFA177).Uint64(), protect...)
}
