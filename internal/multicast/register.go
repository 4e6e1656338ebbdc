package multicast

import (
	"fmt"

	"radionet/internal/protocol"
)

// This file registers the k-message broadcast strategies under the
// "multicast" task: the pipelined random-push epidemic (Lemma 2.3's
// additive-in-k shape) and the classical k-sequential-broadcasts
// reduction it is measured against. Campaign trials seed the task with
// the standard {node 0: value 9} source; the runner broadcasts trialK
// consecutive message values starting there.

// trialK is the number of messages a registered multicast run broadcasts.
const trialK = 8

// trialMessages checks the build parameters of a registered multicast run
// and expands the single-source convention into the trialK-message set:
// values base..base+trialK-1 from the one source node.
func trialMessages(p protocol.BuildParams) (src int, msgs []int64, err error) {
	if p.Tuning != nil {
		return 0, nil, fmt.Errorf("multicast: the multicast descriptors take no tuning, got %T", p.Tuning)
	}
	if len(p.Sources) != 1 {
		return 0, nil, fmt.Errorf("multicast: needs exactly one source, got %d", len(p.Sources))
	}
	var base int64
	//lint:ordered the map has exactly one entry (checked above)
	for s, v := range p.Sources {
		src, base = s, v
	}
	if src < 0 || src >= p.G.N() {
		return 0, nil, fmt.Errorf("multicast: source %d out of range", src)
	}
	msgs = make([]int64, trialK)
	for i := range msgs {
		msgs[i] = base + int64(i)
	}
	return src, msgs, nil
}

func init() {
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Multicast,
		Name:      "sequential",
		Label:     "k-sequential",
		Summary:   "classical reduction: k successive single-message Decay broadcasts, Θ(k·(D+log n)·log n)",
		BudgetDoc: "k · 40·(n+L)·L per message (explicit budgets split evenly per message)",
		Order:     10,
		Caps:      protocol.Caps{},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			if p.Faults != nil {
				return nil, fmt.Errorf("multicast: sequential does not support fault plans (each message's completion is read from a global oracle, not from what survivors heard)")
			}
			src, msgs, err := trialMessages(p)
			if err != nil {
				return nil, err
			}
			r := newSequentialRunner(p.G, p.Seed, src, msgs)
			p.ApplyEngine(r.bc.Engine)
			return r, nil
		},
	})
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Multicast,
		Name:      "pipelined",
		Aliases:   []string{"epidemic"},
		Label:     "pipelined",
		Summary:   "Lemma 2.3-shaped random-push epidemic: all k messages propagate concurrently, additive in k",
		BudgetDoc: "20·(D + k·L)·L",
		Order:     20,
		Caps:      protocol.Caps{},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			if p.Faults != nil {
				return nil, fmt.Errorf("multicast: pipelined does not support fault plans yet")
			}
			src, msgs, err := trialMessages(p)
			if err != nil {
				return nil, err
			}
			pl, err := NewPipelined(p.G, p.D, p.Seed, src, msgs)
			if err != nil {
				return nil, err
			}
			p.ApplyEngine(pl.Engine)
			return pl, nil
		},
	})
}

// Run implements protocol.Runner: an explicit budget is split evenly
// over the messages, floored to one round each.
func (r *sequentialRunner) Run(budget int64) protocol.Result {
	perMsg := int64(0)
	if budget > 0 {
		perMsg = budget / int64(len(r.msgs))
		if perMsg < 1 {
			perMsg = 1
		}
	}
	return r.run(perMsg)
}
