package radio

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// bulkProto is a toy Protocol: every node transmits its id in rounds
// where id % 5 == t % 5, and records every value it hears. The reference
// run drives the same behaviour as per-node machines through the adapter,
// so the adapter and the Protocol must produce identical logs and metrics.
type bulkProto struct {
	n     int
	heard [][]int64
}

type bulkProtoNode struct {
	p  *bulkProto
	id int32
}

func (nd *bulkProtoNode) Act(t int64) Action {
	if int64(nd.id)%5 == t%5 {
		return Transmit(Message{Kind: 1, A: int64(nd.id)})
	}
	return Listen
}

func (nd *bulkProtoNode) Recv(t int64, msg *Message) {
	nd.p.heard[nd.id] = append(nd.p.heard[nd.id], msg.A)
}

func (p *bulkProto) ActBulk(t int64, tx []int32, msgs []Message) ([]int32, []Message) {
	for v := 0; v < p.n; v++ {
		if int64(v)%5 == t%5 {
			tx = append(tx, int32(v))
			msgs = append(msgs, Message{Kind: 1, A: int64(v)})
		}
	}
	return tx, msgs
}

func (p *bulkProto) RecvBulk(t int64, listeners, msgIdx []int32, msgs []Message) {
	for k, vi := range listeners {
		p.heard[vi] = append(p.heard[vi], msgs[msgIdx[k]].A)
	}
}

// run executes rounds rounds on g, as a Protocol (bulk) or as per-node
// machines through the adapter.
func (p *bulkProto) run(g *graph.Graph, rounds int64, bulk bool) *Engine {
	n := g.N()
	p.n = n
	p.heard = make([][]int64, n)
	var e *Engine
	if bulk {
		e = NewEngine(g, p)
	} else {
		nodes := make([]Node, n)
		for v := 0; v < n; v++ {
			nodes[v] = &bulkProtoNode{p: p, id: int32(v)}
		}
		e = NewNodeEngine(g, nodes)
	}
	stepN(e, rounds)
	return e
}

// A Protocol's ActBulk/RecvBulk must be observationally identical to the
// same behaviour as per-node machines through the adapter.
func TestBulkRecvMatchesPerNode(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(23),
		graph.Grid(5, 7),
		graph.Gnp(40, 0.1, rng.New(3)),
		graph.Star(17),
	}
	for _, g := range graphs {
		ref, got := &bulkProto{}, &bulkProto{}
		re := ref.run(g, 64, false)
		ge := got.run(g, 64, true)
		if re.Metrics != ge.Metrics {
			t.Fatalf("%s: metrics differ: per-node %+v, bulk %+v", g, re.Metrics, ge.Metrics)
		}
		for v := 0; v < g.N(); v++ {
			a, b := ref.heard[v], got.heard[v]
			if len(a) != len(b) {
				t.Fatalf("%s node %d: heard %d vs %d messages", g, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s node %d msg %d: %d vs %d", g, v, i, a[i], b[i])
				}
			}
		}
	}
}
