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

func sanctioned() *rng.Rand {
	//lint:seedroot fixture: reviewed ambient seed
	return rng.New(globalSeed)
}
