package rng

import (
	"math"
	"math/bits"
	"testing"
)

// naiveCoin is the per-bit oracle for WordCoins, written from the
// specification alone: word w's hash words in round t are the SplitMix64
// stream seeded with Hash64(key, t, w), and node 64w+b's coin at step s is
// set iff bit b is set in each of the first s+1 of them.
func naiveCoin(key uint64, t int64, v, s int) bool {
	state := Hash64(key, uint64(t), uint64(v/64))
	for range s + 1 {
		if splitMix64(&state)>>(v%64)&1 == 0 {
			return false
		}
	}
	return true
}

// TestWordCoinsMatchNaiveOracle checks Fill's prefix array and the
// per-node Coin accessor against naiveCoin, bit for bit, over several
// keys, rounds (including negative and large ones), words and every step
// up to 20.
func TestWordCoinsMatchNaiveOracle(t *testing.T) {
	const steps = 21
	var p [steps]uint64
	for _, key := range []uint64{0, 1, 0xdeadbeefcafef00d} {
		for _, round := range []int64{0, 1, 2, 7, -3, 1 << 40} {
			c := NewWordCoins(key, round)
			for _, w := range []int{0, 1, 2, 63, 1000} {
				c.Fill(w, p[:])
				for s := range steps {
					for b := range 64 {
						v := 64*w + b
						want := naiveCoin(key, round, v, s)
						if got := p[s]>>b&1 == 1; got != want {
							t.Fatalf("key %#x round %d node %d step %d: Fill bit %v, oracle %v", key, round, v, s, got, want)
						}
						if got := c.Coin(v, s); got != want {
							t.Fatalf("key %#x round %d node %d step %d: Coin %v, oracle %v", key, round, v, s, got, want)
						}
					}
				}
				// A shorter fill is a prefix of the longer one.
				var short [5]uint64
				c.Fill(w, short[:])
				for s, x := range short {
					if x != p[s] {
						t.Fatalf("key %#x round %d word %d: 5-step fill differs at step %d", key, round, w, s)
					}
				}
			}
		}
	}
}

// The size of coinSample.
const (
	sampleSteps  = 14
	sampleWords  = 256
	sampleRounds = 256
)

// coinSample returns Fill's prefix arrays, indexed [round][word], for
// sampleWords words over sampleRounds consecutive rounds under one key.
func coinSample() [][][sampleSteps]uint64 {
	out := make([][][sampleSteps]uint64, sampleRounds)
	for t := range out {
		c := NewWordCoins(0x5eed, int64(t))
		out[t] = make([][sampleSteps]uint64, sampleWords)
		for w := range out[t] {
			c.Fill(w, out[t][w][:])
		}
	}
	return out
}

// within4Sigma reports whether hits out of n trials is within four
// standard deviations of the binomial mean n·q.
func within4Sigma(hits, n int, q float64) (bool, float64) {
	mean := float64(n) * q
	sigma := math.Sqrt(float64(n) * q * (1 - q))
	z := (float64(hits) - mean) / sigma
	return math.Abs(z) <= 4, z
}

// TestWordCoinsStepFrequency checks that every coin at step s = 0…13 is
// set with frequency within 4σ of 2^-(s+1), over 64·256·256 coins per
// step.
func TestWordCoinsStepFrequency(t *testing.T) {
	sample := coinSample()
	for s := range sampleSteps {
		hits := 0
		for _, words := range sample {
			for _, p := range words {
				hits += bits.OnesCount64(p[s])
			}
		}
		n := 64 * sampleWords * sampleRounds
		q := math.Ldexp(1, -(s + 1))
		if ok, z := within4Sigma(hits, n, q); !ok {
			t.Errorf("step %d: %d hits of %d, z = %.2f against p = 2^-%d", s, hits, n, z, s+1)
		}
	}
}

// TestWordCoinsPairwiseIndependence checks the joint frequency of two
// coins at the same step against independence (p², within 4σ) for three
// neighbour relations: adjacent bits of a word, the same bit of adjacent
// words, and the same node in consecutive rounds.
func TestWordCoinsPairwiseIndependence(t *testing.T) {
	sample := coinSample()
	for _, s := range []int{0, 1, 3} {
		q := math.Ldexp(1, -2*(s+1))
		var bitsHits, wordHits, roundHits, bitsN, wordN, roundN int
		for r, words := range sample {
			for w, p := range words {
				bitsHits += bits.OnesCount64(p[s] & (p[s] >> 1) & (1<<63 - 1))
				bitsN += 63
				if w+1 < len(words) {
					wordHits += bits.OnesCount64(p[s] & words[w+1][s])
					wordN += 64
				}
				if r+1 < len(sample) {
					roundHits += bits.OnesCount64(p[s] & sample[r+1][w][s])
					roundN += 64
				}
			}
		}
		for _, c := range []struct {
			name    string
			hits, n int
		}{
			{"adjacent bits", bitsHits, bitsN},
			{"adjacent words", wordHits, wordN},
			{"consecutive rounds", roundHits, roundN},
		} {
			if ok, z := within4Sigma(c.hits, c.n, q); !ok {
				t.Errorf("step %d, %s: %d joint hits of %d, z = %.2f against independence", s, c.name, c.hits, c.n, z)
			}
		}
	}
}
