package multicast

import (
	"fmt"
	"strings"
	"testing"

	"radionet/internal/graph"
)

func msgs(k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = int64(1000 + i)
	}
	return out
}

func TestPipelinedCompletes(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(30),
		graph.Grid(6, 10),
		graph.PathOfCliques(5, 5),
	} {
		p, err := NewPipelined(g, g.DiameterEstimate(), 3, 0, msgs(8))
		if err != nil {
			t.Fatal(err)
		}
		res := p.Run(1 << 22)
		rounds, done := res.Rounds, res.Done
		if !done {
			t.Fatalf("%v: pipelined multicast incomplete after %d rounds", g, rounds)
		}
		for v, nd := range p.nodes {
			for i, m := range msgs(8) {
				if nd.vals[i] != m {
					t.Fatalf("%v: node %d message %d = %d, want %d", g, v, i, nd.vals[i], m)
				}
			}
		}
	}
}

func TestPipelinedValidation(t *testing.T) {
	g := graph.Path(5)
	if _, err := NewPipelined(g, g.DiameterEstimate(), 1, 0, nil); err == nil {
		t.Fatal("empty message set accepted")
	}
	if _, err := NewPipelined(g, g.DiameterEstimate(), 1, 9, msgs(2)); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestPipelinedSingleMessageMatchesBroadcast(t *testing.T) {
	g := graph.Path(40)
	p, err := NewPipelined(g, g.DiameterEstimate(), 7, 0, msgs(1))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Run(1 << 20).Done {
		t.Fatal("k=1 multicast incomplete")
	}
}

func TestSequentialCompletes(t *testing.T) {
	g := graph.Grid(5, 8)
	res := Sequential(g, 11, 0, msgs(4), 0)
	if !res.Done {
		t.Fatalf("sequential multicast incomplete after %d rounds", res.Rounds)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
	if res.Tx <= 0 {
		t.Fatal("no transmissions recorded")
	}
}

func TestKnownCountsMonotone(t *testing.T) {
	g := graph.Path(20)
	p, err := NewPipelined(g, g.DiameterEstimate(), 5, 0, msgs(4))
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]int, len(p.nodes))
	for v := range p.nodes {
		prev[v] = p.nodes[v].count
	}
	for i := 0; i < 500; i++ {
		p.Engine.Step()
		for v := range p.nodes {
			if p.nodes[v].count < prev[v] {
				t.Fatalf("node %d known count decreased", v)
			}
			prev[v] = p.nodes[v].count
		}
	}
}

// TestPipeliningBeatsSequentialForManyMessages is the Lemma 2.3 shape:
// additive-in-k pipelining vs multiplicative-in-k sequential.
func TestPipeliningBeatsSequentialForManyMessages(t *testing.T) {
	g := graph.Path(48)
	k := 16
	p, err := NewPipelined(g, g.DiameterEstimate(), 9, 0, msgs(k))
	if err != nil {
		t.Fatal(err)
	}
	pr := p.Run(1 << 24)
	sr := Sequential(g, 9, 0, msgs(k), 0)
	if !pr.Done || !sr.Done {
		t.Fatalf("incomplete: pipelined=%v sequential=%v", pr.Done, sr.Done)
	}
	if pr.Rounds >= sr.Rounds {
		t.Fatalf("pipelined (%d) not faster than sequential (%d) at k=%d", pr.Rounds, sr.Rounds, k)
	}
}

// messageTraces runs Sequential on g from node 0 with k messages and
// returns each message's broadcast as one string of its per-round
// transmitter sets. With one source, a trace is a function of the
// message's sub-run seed, so equal traces mean a shared seed.
func messageTraces(t *testing.T, g *graph.Graph, seed uint64, k int) []string {
	t.Helper()
	r := newSequentialRunner(g, seed, 0, msgs(k))
	var cur strings.Builder
	var out []string
	r.bc.Engine.Hook = func(_ int64, tx []int32, _, _ int) {
		fmt.Fprint(&cur, tx, ";")
		if r.bc.Reached() >= r.bc.ReachTarget() {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	if res := r.run(0); !res.Done {
		t.Fatalf("seed %d: sequential run incomplete", seed)
	}
	if len(out) != k {
		t.Fatalf("seed %d: %d message traces, want %d", seed, len(out), k)
	}
	return out
}

// TestSequentialTrialsShareNoSubRun checks that consecutive trial seeds
// s and s+1 at k = 32 share no message broadcast: every message of both
// trials has its own transmitter trace. Adding the message index to the
// trial seed would make message i+1 of trial s replay message i of trial
// s+1.
func TestSequentialTrialsShareNoSubRun(t *testing.T) {
	g := graph.Grid(8, 8)
	for s := uint64(1); s <= 3; s++ {
		seen := map[string]string{}
		for _, seed := range []uint64{s, s + 1} {
			for i, tr := range messageTraces(t, g, seed, 32) {
				at := fmt.Sprintf("seed %d message %d", seed, i)
				if prev, ok := seen[tr]; ok {
					t.Errorf("%s replays %s", at, prev)
				}
				seen[tr] = at
			}
		}
	}
}
