package radio

import (
	"fmt"

	"radionet/internal/graph"
)

// This file is the harness for per-node reference machines in tests: the
// protocols keep their per-node oracles in _test.go files and run them
// through NewNodeEngine. It stays in package radio because radio's own
// tests use it, and those cannot import a package that imports radio.

// Action is a node's choice for one round: transmit Msg, or listen.
type Action struct {
	Transmit bool
	Msg      Message
}

// Listen is the do-nothing action.
var Listen = Action{}

// Transmit returns a transmitting action carrying msg.
func Transmit(msg Message) Action { return Action{Transmit: true, Msg: msg} }

// Node is a protocol state machine for a single network node, run by
// NewNodeEngine's adapter. Each round the adapter calls Act on every live
// node in ascending id order; after the engine applies the collision rule
// it calls Recv, in ascending id order, on every listener that heard a
// message. A crashed node never acts and hears nothing, a transmitter
// never hears, and a listener that heard nothing gets no call (it cannot
// tell silence from a collision, so the report would carry nothing).
type Node interface {
	// Act returns the node's action for the given round.
	Act(round int64) Action
	// Recv reports the message of the listener's unique transmitting
	// neighbor, never nil. The pointer is valid only during the call and
	// is shared with the transmitter's other listeners: treat it as
	// read-only.
	Recv(round int64, msg *Message)
}

// nodeProtocol is the Protocol adapter over per-node state machines. It
// keeps their per-node semantics exactly: Act runs in ascending id order
// and never on a crashed node, and Recv replays in ascending listener
// order.
type nodeProtocol struct {
	e     *Engine
	nodes []Node
}

func (p *nodeProtocol) ActBulk(t int64, tx []int32, msgs []Message) ([]int32, []Message) {
	deadw := p.e.deadw
	for i, nd := range p.nodes {
		if deadw[i>>6]&(1<<(uint(i)&63)) != 0 {
			continue // dead nodes are off the air
		}
		if a := nd.Act(t); a.Transmit {
			tx = append(tx, int32(i))
			msgs = append(msgs, a.Msg)
		}
	}
	return tx, msgs
}

func (p *nodeProtocol) RecvBulk(t int64, listeners, msgIdx []int32, msgs []Message) {
	for k, v := range listeners {
		p.nodes[v].Recv(t, &msgs[msgIdx[k]])
	}
}

// NewNodeEngine returns an engine running the per-node state machines
// nodes on g, through the adapter that lifts them to a Protocol.
// len(nodes) must equal g.N().
func NewNodeEngine(g *graph.Graph, nodes []Node) *Engine {
	if len(nodes) != g.N() {
		panic(fmt.Sprintf("radio: %d nodes for graph with %d vertices", len(nodes), g.N()))
	}
	p := &nodeProtocol{nodes: nodes}
	p.e = NewEngine(g, p)
	return p.e
}
