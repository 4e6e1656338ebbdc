package multicast

import (
	"reflect"
	"slices"
	"testing"

	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// refNode is the per-node oracle for Pipelined.ActBulk and RecvBulk: node
// v of p as a radio.Node machine, run by the per-node adapter.
type refNode struct {
	p *Pipelined
	v int
}

// Act draws node v's coins for round t: nothing while it knows no
// message, else a Bernoulli(Prob(t mod L)) transmission coin and, when it
// transmits, a fair coin between its newest message and a uniformly
// random known one.
func (r refNode) Act(t int64) radio.Action {
	nd := &r.p.nodes[r.v]
	if nd.count == 0 {
		return radio.Listen
	}
	step := int(t % int64(r.p.levels))
	if !nd.rnd.Bernoulli(decay.Prob(step)) {
		return radio.Listen
	}
	idx := nd.latest
	if nd.rnd.Bernoulli(0.5) {
		pick := nd.rnd.Intn(nd.count)
		for i, ok := range nd.known {
			if !ok {
				continue
			}
			if pick == 0 {
				idx = i
				break
			}
			pick--
		}
	}
	return radio.Transmit(radio.Message{Kind: KindMulti, A: nd.vals[idx], B: int64(idx)})
}

func (r refNode) Recv(_ int64, msg *radio.Message) {
	if msg.Kind != KindMulti {
		return
	}
	r.p.learn(&r.p.nodes[r.v], int(msg.B), msg.A)
}

// perNode swaps a freshly built p's engine for one that runs its nodes as
// refNode machines through the radio per-node adapter (the reference path
// the bulk protocol is pinned to), and returns p.
func perNode(p *Pipelined) *Pipelined {
	if p.Engine.Round() != 0 {
		panic("multicast: perNode after the first Step")
	}
	rn := make([]radio.Node, len(p.nodes))
	for v := range rn {
		rn[v] = refNode{p: p, v: v}
	}
	p.Engine = radio.NewNodeEngine(p.Engine.G, rn)
	return p
}

// The bulk protocol must match the per-node oracle round for round, at
// every shard count: the same transmitter list in every round, the same
// known/vals on every node after it, and the same Result.
func TestPipelinedMatchesPerNode(t *testing.T) {
	r := rng.New(4)
	graphs := []*graph.Graph{
		graph.RandomTree(300, r.Fork(1)),
		graph.Gnp(300, 0.03, r.Fork(2)),
		graph.Grid(16, 20),
	}
	for gi, g := range graphs {
		for _, k := range []int{1, 3, 8} {
			for shards := 1; shards <= 4; shards++ {
				seed := uint64(10*gi + k)
				bulk, err := NewPipelined(g, g.DiameterEstimate(), seed, gi, msgs(k))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewPipelined(g, g.DiameterEstimate(), seed, gi, msgs(k))
				if err != nil {
					t.Fatal(err)
				}
				perNode(ref)
				var btx, rtx []int32
				for _, c := range []struct {
					p  *Pipelined
					tx *[]int32
				}{{bulk, &btx}, {ref, &rtx}} {
					c.p.Engine.SetShards(shards)
					defer c.p.Engine.Close()
					c.p.Engine.Hook = func(_ int64, tx []int32, _, _ int) {
						*c.tx = append((*c.tx)[:0], tx...)
					}
				}
				for round := 0; ; round++ {
					if round == 1<<16 {
						t.Fatalf("%s k=%d shards=%d: incomplete after %d rounds", g, k, shards, round)
					}
					bres, rres := bulk.Run(1), ref.Run(1)
					if !reflect.DeepEqual(bres, rres) {
						t.Fatalf("%s k=%d shards=%d round %d: bulk %+v, per-node %+v", g, k, shards, round, bres, rres)
					}
					if !slices.Equal(btx, rtx) {
						t.Fatalf("%s k=%d shards=%d round %d: transmitters %v, per-node %v", g, k, shards, round, btx, rtx)
					}
					for v := range bulk.nodes {
						b, p := &bulk.nodes[v], &ref.nodes[v]
						if !slices.Equal(b.known, p.known) || !slices.Equal(b.vals, p.vals) {
							t.Fatalf("%s k=%d shards=%d round %d: node %d knows %v/%v, per-node %v/%v",
								g, k, shards, round, v, b.known, b.vals, p.known, p.vals)
						}
					}
					if bres.Done {
						break
					}
				}
				if bulk.Engine.Metrics != ref.Engine.Metrics {
					t.Fatalf("%s k=%d shards=%d: metrics %+v, per-node %+v", g, k, shards, bulk.Engine.Metrics, ref.Engine.Metrics)
				}
			}
		}
	}
}
