package compete

import (
	"math"
	"sync"

	"radionet/internal/cluster"
	"radionet/internal/decay"
	"radionet/internal/graph"
)

// Pre is the seed-independent part of Compete's precomputation for one
// (graph, diameter, config) triple: the clustering parameter grid (coarse
// and background β, the fine exponent range, per-exponent curtailment
// distances ℓ(j)) and a pool of reusable build buffers for the
// seed-dependent Partition/schedule construction. A Pre can be built once
// per experiment configuration and shared by every trial on that
// configuration — New consumes the same randomness whichever Pre it is
// given, so sharing a Pre across seeds (or across concurrent workers; Pre
// is safe for concurrent use) leaves every output bit-identical.
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

	// pool recycles the mutable Partition/schedule build buffers across
	// trials; entries are *buildScratch.
	pool sync.Pool
}

// buildScratch is the per-construction mutable state recycled through
// Pre.pool: the Partition source, FIFO and node-state buffers and the
// schedule contention buffer. Not safe for concurrent use; New checks
// one out for the duration of a single construction.
type buildScratch struct {
	part cluster.Scratch
	cont []int32
}

// NewPre computes the seed-independent precomputation geometry for
// Compete instances on g with diameter d under cfg. The returned Pre is
// immutable (its scratch pool aside) and safe for concurrent use.
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

// scratch checks a build scratch out of the pool; done returns it.
func (p *Pre) scratch() (*buildScratch, func()) {
	s, _ := p.pool.Get().(*buildScratch)
	if s == nil {
		s = &buildScratch{}
	}
	if len(s.cont) < p.g.N() {
		s.cont = make([]int32, p.g.N())
	}
	return s, func() { p.pool.Put(s) }
}
