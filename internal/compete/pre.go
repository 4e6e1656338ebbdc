package compete

import (
	"math"

	"radionet/internal/cluster"
	"radionet/internal/decay"
	"radionet/internal/graph"
)

// Pre is the seed-independent part of Compete's precomputation for one
// (graph, diameter, config) triple: the clustering parameter grid (coarse
// and background β, the fine exponent range, per-exponent curtailment
// distances ℓ(j)). Build fills one per run; a Pre is immutable once
// built, so callers may also share one across seeds and goroutines — New
// consumes the same randomness whichever Pre it is given, and every
// output stays bit-identical.
type Pre struct {
	g          *graph.Graph
	d          int
	cfg        Config // defaults applied
	l4         int
	logn, logD float64
	coarseBeta float64
	bgBeta     float64
	jmin, jmax int
	// ellMain[j-jmin] is the main-process curtailment ℓ(j) of Theorem 2.2
	// (unused under DisableCurtail, which curtails at the seed-dependent
	// strong radius instead).
	ellMain []int32
	// ellBg is the background-process curtailment O(log n/β).
	ellBg int32
}

// NewPre computes the seed-independent precomputation geometry for
// Compete instances on g with diameter d under cfg. The returned Pre is
// immutable and safe for concurrent use.
func NewPre(g *graph.Graph, d int, cfg Config) *Pre {
	if d < 1 {
		d = 1
	}
	cfg = cfg.withDefaults()
	n := g.N()
	p := &Pre{
		g:    g,
		d:    d,
		cfg:  cfg,
		l4:   decay.Levels(n),
		logn: math.Log2(float64(n) + 2),
		logD: math.Log2(float64(d) + 2),
	}
	p.coarseBeta = math.Pow(float64(d), -coarseBetaExp)
	if p.coarseBeta > 1 {
		p.coarseBeta = 1
	}
	p.bgBeta = math.Pow(float64(d), -bgBetaExp)
	if p.bgBeta > 1 {
		p.bgBeta = 1
	}
	p.jmin, p.jmax = cluster.JRange(d)
	for j := p.jmin; j <= p.jmax; j++ {
		ell := int32(math.Ceil(cfg.CurtailC * math.Pow(2, float64(j)) * p.logn / p.logD))
		if cfg.CurtailLogLog {
			ell = int32(math.Ceil(float64(ell) * math.Log2(p.logn)))
		}
		if ell < 2 {
			ell = 2
		}
		p.ellMain = append(p.ellMain, ell)
	}
	p.ellBg = int32(math.Ceil(bgCurtailC * p.logn / p.bgBeta))
	if p.ellBg < 2 {
		p.ellBg = 2
	}
	return p
}
