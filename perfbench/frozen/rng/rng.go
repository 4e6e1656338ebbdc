// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every randomized component of the simulator.
//
// Reproducibility is a core requirement: an experiment run is fully
// determined by a single master seed. Each node of a simulated radio
// network, and each logical subsystem (clustering, schedules, protocol
// lanes), derives an independent stream from the master seed via Fork, so
// adding or removing one consumer never perturbs the randomness seen by
// another.
//
// The generator is xoshiro256** seeded through SplitMix64, the standard
// construction recommended by the xoshiro authors. It is not
// cryptographically secure; it is fast, has a 2^256-1 period, and passes
// BigCrush, which is what a discrete-event simulator needs.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for stream derivation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic pseudo-random stream. The zero value is not
// usable; construct streams with New or Fork.
type Rand struct {
	s [4]uint64
}

// New returns a stream derived from seed. Distinct seeds yield
// (statistically) independent streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Fork derives an independent child stream identified by id. Forking with
// the same id twice yields the same stream; distinct ids yield independent
// streams. Fork does not advance the parent.
func (r *Rand) Fork(id uint64) *Rand {
	// Mix the parent state with the id through SplitMix64 so that child
	// streams are decorrelated from the parent and from each other.
	sm := r.s[0] ^ (r.s[1] << 1) ^ (r.s[2] >> 1) ^ r.s[3] ^ (id * 0xd1342543de82ef95)
	_ = splitMix64(&sm)
	return New(splitMix64(&sm) ^ id)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Int63 returns a uniformly random non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniformly random int in [0, n). It panics if n <= 0,
// mirroring math/rand.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniformly random int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed variate with rate beta
// (mean 1/beta). It panics if beta <= 0.
func (r *Rand) Exp(beta float64) float64 {
	if beta <= 0 {
		panic("rng: Exp called with beta <= 0")
	}
	// Inverse CDF; 1-Float64() is in (0, 1] so Log never sees zero.
	return -math.Log(1-r.Float64()) / beta
}

// Hash64 deterministically mixes the given words into a single 64-bit
// value. Protocols use it to derive shared per-cluster coins: every member
// of a cluster computes the same hash of (seed, cluster, epoch) and hence
// the same coin, modeling randomness distributed by the cluster center
// during precomputation.
func Hash64(words ...uint64) uint64 {
	state := uint64(0x6a09e667f3bcc909)
	for _, w := range words {
		state ^= w
		_ = splitMix64(&state)
	}
	return splitMix64(&state)
}

// HashFloat maps Hash64 of the words to a uniform float64 in [0, 1).
func HashFloat(words ...uint64) float64 {
	return float64(Hash64(words...)>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
