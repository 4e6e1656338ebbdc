// Package rngfix is the rngdiscipline-analyzer fixture.
package rngfix

import "radionet/internal/rng"

var globalSeed uint64

func zeroValue() *rng.Rand {
	r := rng.Rand{} // want "rng.Rand composite literal"
	_ = r
	return new(rng.Rand) // want "unusable zero state"
}

func ambient() *rng.Rand {
	return rng.New(globalSeed) // want "package-level variable globalSeed"
}

func seedOf() uint64 { return 42 }

func derived() *rng.Rand {
	return rng.New(seedOf()) // want "call outside radionet/internal/rng"
}

func forkAmbient(master *rng.Rand) *rng.Rand {
	return master.Fork(globalSeed) // want "package-level variable globalSeed"
}

func clean(seed, id uint64) *rng.Rand {
	master := rng.New(seed)
	return master.Fork(id)
}

func hashed(seed uint64, v int) *rng.Rand {
	return rng.New(rng.Hash64(seed, uint64(v)))
}

func coinsAmbient(t int64) rng.WordCoins {
	return rng.NewWordCoins(globalSeed, t) // want "package-level variable globalSeed"
}

func coinsDerived(t int64) rng.WordCoins {
	return rng.NewWordCoins(seedOf(), t) // want "call outside radionet/internal/rng"
}

// Only the key is a seed; the round may come from anywhere.
func coinsClean(master *rng.Rand) rng.WordCoins {
	return rng.NewWordCoins(master.Fork(4).Uint64(), int64(seedOf()))
}

// broadcast stands in for a composite runner's re-armed sub-run.
type broadcast struct{}

func (broadcast) Rearm(seed uint64, sources map[int]int64) {}

func arm(seed uint64) {}

// Adding to a seed makes sub-run i of trial s the sub-run i-1 of trial
// s+1: the binary-search site.
func subRunsAdded(bc broadcast, seed uint64, i, bit int) *rng.Rand {
	bc.Rearm(seed+uint64(i), nil)      // want "seed derived by \+/- arithmetic"
	bc.Rearm(seed+uint64(bit)+1, nil)  // want "seed derived by \+/- arithmetic"
	arm(uint64(int(seed) - i))         // want "seed derived by \+/- arithmetic"
	return rng.New((seed + uint64(i))) // want "seed derived by \+/- arithmetic"
}

// Forked sub-run seeds, and arithmetic inside Fork ids, NewWordCoins keys
// and Hash64 words (hashed keys), are clean; so is a non-seed argument.
func subRunsForked(bc broadcast, master *rng.Rand, seed uint64, i int) rng.WordCoins {
	bc.Rearm(rng.New(seed).Fork(uint64(i)).Uint64(), map[int]int64{i + 1: 0})
	bc.Rearm(master.Fork(100+uint64(i)).Uint64(), nil)
	arm(rng.Hash64(seed, uint64(i)+1))
	return rng.NewWordCoins(seed+7000, int64(i)-1)
}

func sanctioned() *rng.Rand {
	//lint:seedroot fixture: reviewed ambient seed
	return rng.New(globalSeed)
}
