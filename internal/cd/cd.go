// Package cd implements broadcasting in the radio network model *with*
// collision detection, the stronger model variant the paper contrasts
// with in Sections 1.1 and 1.3 (where Ghaffari, Haeupler and Khabbazian
// [11] gave an O(D + log⁶n) randomized algorithm that beats every no-CD
// algorithm).
//
// The protocol here is the classical beep-wave pipeline: with collision
// detection, "two or more neighbors transmitted" is as informative as a
// reception, so a 1-bit wave can be flooded one hop per round. The source
// emits one wave every 3 rounds — wave 0 is a start marker from which
// every node learns its BFS depth, and wave k carries the k-th message
// bit (beep = 1, silence = 0). Waves spaced 3 apart never interfere: a
// node at depth ℓ listens for wave k exactly at round ℓ-1+3k, when only
// depth ℓ-1 can be beeping among its neighbors. A B-bit message therefore
// reaches every node in ecc(source) + 3B + O(1) rounds, deterministically
// — the O(D + B) separation from the no-CD model's Ω(D·log(n/D)) lower
// bound that motivates the paper's interest in model power.
//
// Without collision detection the same protocol mis-decodes as soon as
// some BFS layer has two members adjacent to a listener (the collision
// reads as silence); the tests demonstrate this separation explicitly.
package cd

import (
	"errors"
	"math/bits"

	"radionet/internal/graph"
	"radionet/internal/radio"
)

// KindBeep tags wave transmissions; beeps carry no payload — timing and
// the collision-or-message distinction are the channel.
const KindBeep radio.Kind = 4

// waveSpacing is the round gap between consecutive waves; 3 guarantees
// non-interference between adjacent wave fronts (see package comment).
const waveSpacing = 3

// node is the per-node beep-wave state.
type node struct {
	isSource bool
	value    int64 // source: message; others: assembled bits
	nbits    int

	offset int64 // round of own wave-0 beep (= BFS depth); -1 unknown
	heard  map[int64]bool
}

func (nd *node) Act(t int64) radio.Action {
	if nd.isSource {
		k := t / waveSpacing
		if t%waveSpacing == 0 && int(k) <= nd.nbits {
			if k == 0 || nd.bit(int(k-1)) {
				return radio.Transmit(radio.Message{Kind: KindBeep})
			}
		}
		return radio.Listen
	}
	if nd.offset >= 0 {
		// Relay one round after hearing a beep: wave k heard at
		// offset-1+3k is re-beeped at offset+3k.
		if nd.heard[t-1] {
			delete(nd.heard, t-1)
			return radio.Transmit(radio.Message{Kind: KindBeep})
		}
	}
	return radio.Listen
}

func (nd *node) Recv(t int64, msg *radio.Message, collided bool) {
	beep := collided || (msg != nil && msg.Kind == KindBeep)
	if !beep || nd.isSource {
		return
	}
	if nd.offset < 0 {
		// First beep ever heard is wave 0 from depth offset-1.
		nd.offset = t + 1
		nd.heard[t] = true
		return
	}
	// Wave k arrives at offset-1 + 3k.
	rel := t - (nd.offset - 1)
	if rel < 0 || rel%waveSpacing != 0 {
		return // off-schedule beep (e.g. a deeper layer); ignore
	}
	k := int(rel / waveSpacing)
	if k >= 1 && k <= nd.nbits {
		nd.value |= 1 << uint(k-1)
	}
	nd.heard[t] = true
}

func (nd *node) bit(i int) bool { return nd.value&(1<<uint(i)) != 0 }

// Broadcast is a running beep-wave broadcast instance.
type Broadcast struct {
	Engine *radio.Engine

	value int64
	nbits int
	nodes []*node
}

// NewBroadcast builds a beep-wave broadcast of value (>= 0) from src on g.
// The engine runs with collision detection enabled; disable it afterwards
// (Engine.CollisionDetection = false) to demonstrate the model separation.
func NewBroadcast(g *graph.Graph, src int, value int64) (*Broadcast, error) {
	if src < 0 || src >= g.N() {
		return nil, errors.New("cd: source out of range")
	}
	if value < 0 {
		return nil, errors.New("cd: message must be non-negative")
	}
	nbits := bits.Len64(uint64(value))
	if nbits == 0 {
		nbits = 1
	}
	ns := make([]*node, g.N())
	rn := make([]radio.Node, g.N())
	for v := range ns {
		ns[v] = &node{offset: -1, nbits: nbits, heard: make(map[int64]bool)}
		rn[v] = ns[v]
	}
	ns[src].isSource = true
	ns[src].value = value
	ns[src].offset = 0
	e := radio.NewEngine(g, rn)
	e.CollisionDetection = true
	return &Broadcast{Engine: e, value: value, nbits: nbits, nodes: ns}, nil
}

// RoundsNeeded returns the deterministic completion bound for a source
// eccentricity ecc: every node has decoded by round ecc + 3·nbits + 1.
func (b *Broadcast) RoundsNeeded(ecc int) int64 {
	return int64(ecc) + waveSpacing*int64(b.nbits) + 1
}

// Done reports whether every node has decoded the full message. A node is
// decoded once its last wave slot has passed; Done also verifies values.
func (b *Broadcast) Done() bool {
	t := b.Engine.Round()
	for _, nd := range b.nodes {
		if nd.isSource {
			continue
		}
		if nd.offset < 0 {
			return false
		}
		if t <= nd.offset-1+waveSpacing*int64(b.nbits) {
			return false // last wave not yet due at this node
		}
		if nd.value != b.value {
			return false
		}
	}
	return true
}

// Values returns each node's current decode (-1 where depth is unknown).
func (b *Broadcast) Values() []int64 {
	out := make([]int64, len(b.nodes))
	for i, nd := range b.nodes {
		if nd.isSource {
			out[i] = b.value
		} else if nd.offset < 0 {
			out[i] = -1
		} else {
			out[i] = nd.value
		}
	}
	return out
}

// Run executes until done or maxRounds.
func (b *Broadcast) Run(maxRounds int64) (int64, bool) {
	return b.Engine.Run(maxRounds, b.Done)
}
