// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every randomized component of the simulator.
//
// Reproducibility is a core requirement: an experiment run is fully
// determined by a single master seed. Each node of a simulated radio
// network, and each logical subsystem (clustering, schedules, protocol
// lanes), derives an independent stream from the master seed via Fork, so
// adding or removing one consumer never perturbs the randomness seen by
// another. Where a value must be the same wherever it is computed, it is
// a stateless hash of an explicit key instead: Hash64 for shared cluster
// coins and sequences, WordCoins for per-node transmission coins drawn 64
// nodes at a time.
//
// The generator is xoshiro256** seeded through SplitMix64, the standard
// construction recommended by the xoshiro authors. It is not
// cryptographically secure; it is fast, has a 2^256-1 period, and passes
// BigCrush, which is what a discrete-event simulator needs.
package rng

import (
	"math"
	"math/bits"
)

// golden is SplitMix64's state increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's output function, a bijection on 64-bit words
// whose every output bit depends on every input bit. It is the one mixer
// behind seeding, stream derivation and the stateless hashes.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for stream derivation.
func splitMix64(state *uint64) uint64 {
	*state += golden
	return mix64(*state)
}

// hashInit is Hash64's initial state (the first SHA-512 IV word).
const hashInit = 0x6a09e667f3bcc909

// absorb mixes one key word into a Hash64 state.
func absorb(h, w uint64) uint64 { return mix64((h ^ w) + golden) }

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

// Uint64 returns the next 64 uniformly random bits. The xoshiro256** step
// reads the state into locals and writes it back in one store, which keeps
// it within the compiler's inlining budget: per-round coin loops pay no
// call and spill no registers.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return result
}

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
//
// Every word is mixed into the state before the next is absorbed, so
// keys that differ in any word hash apart: distinct small keys such as
// (seed, center, slot) give distinct, unrelated outputs, not shifted
// copies of one sequence.
func Hash64(words ...uint64) uint64 {
	h := uint64(hashInit)
	for _, w := range words {
		h = absorb(h, w)
	}
	return h
}

// WordCoins is one round's keyed word coins: the transmission coins of
// every node in round t under one key, drawn 64 nodes at a time. Word w
// covers nodes 64w … 64w+63, and Fill gives it a prefix array p whose
// entry p[s] is the AND of s+1 independently mixed 64-bit words. So bit b
// of p[s] is node 64w+b's coin at step s, set with probability exactly
// 2^-(s+1), independently across bits, words, rounds and keys (as far as
// the mixer is ideal). A coin is a pure function of (key, t, node, step),
// so every caller sees the same bit, in any order and at any shard
// count.
type WordCoins struct{ k uint64 }

// NewWordCoins returns round t's coins under key: Hash64(key, t), with
// the word absorbed per Fill.
func NewWordCoins(key uint64, t int64) WordCoins {
	return WordCoins{absorb(absorb(hashInit, key), uint64(t))}
}

// Fill sets p[s], for every s < len(p), to word w's coins at step s. A
// shorter p is a prefix of a longer one, so a caller hashes only up to the
// largest step it needs. The words are a SplitMix64 stream seeded with
// Hash64(key, t, w).
func (c WordCoins) Fill(w int, p []uint64) {
	st := absorb(c.k, uint64(w))
	acc := ^uint64(0)
	for s := range p {
		acc &= splitMix64(&st)
		p[s] = acc
	}
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
