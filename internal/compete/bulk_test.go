package compete

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"radionet/internal/cluster"
	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// roundLog captures one engine round as seen by a RoundHook.
type roundLog struct {
	tx                     []int32
	deliveries, collisions int
}

func hookInto(e *radio.Engine, log *[]roundLog) {
	e.Hook = func(_ int64, transmitters []int32, deliveries, collisions int) {
		*log = append(*log, roundLog{
			tx:         append([]int32(nil), transmitters...),
			deliveries: deliveries,
			collisions: collisions,
		})
	}
}

// bulkEquivGraphs builds the randomized sparse topologies the
// bulk-vs-reference sweeps run on (cf. decay's equivalenceGraphs). The
// last two span several 64-bit words of the bulk path's bitsets with an n
// that is not a multiple of 64 (207 and 301 nodes), and hold several
// coarse clusters, so word-boundary and per-clock member-list bugs show.
func bulkEquivGraphs(seed uint64) []*graph.Graph {
	r := rng.New(seed)
	return []*graph.Graph{
		graph.RandomTree(48, r.Fork(1)),
		graph.Gnp(56, 0.07, r.Fork(2)),
		graph.Grid(5, 8),
		graph.PathOfCliques(5, 4),
		graph.Grid(9, 23),
		graph.RandomGeometric(301, 0.1, r.Fork(3)),
	}
}

// lockstep runs a bulk-path instance and its per-node reference (built
// through perNode) side by side, one round at a time, until both are
// Done or budget rounds elapse. It fails unless they agree round for
// round: same transmitter sets, same delivery/collision counts, same node
// values after every round, and the same metrics and Reached at the
// end. After every round it also checks the bulk path's lane views
// (checkLaneViews).
func lockstep(t *testing.T, label string, bc, rc *Compete, budget int64) {
	t.Helper()
	if bc.bulk == nil {
		t.Fatalf("%s: bulk protocol not installed on the bulk path", label)
	}
	if rc.bulk != nil {
		t.Fatalf("%s: bulk protocol installed on the reference path", label)
	}
	var blog, rlog []roundLog
	hookInto(bc.Engine, &blog)
	hookInto(rc.Engine, &rlog)
	for r := int64(0); r < budget; r++ {
		if bc.Done() != rc.Done() {
			t.Fatalf("%s round %d: bulk Done=%v, reference Done=%v", label, r, bc.Done(), rc.Done())
		}
		if bc.Done() && rc.Done() {
			break
		}
		bc.Engine.Step()
		rc.Engine.Step()
		b, p := blog[len(blog)-1], rlog[len(rlog)-1]
		if b.deliveries != p.deliveries || b.collisions != p.collisions {
			t.Fatalf("%s round %d: bulk %d/%d deliveries/collisions, reference %d/%d",
				label, r, b.deliveries, b.collisions, p.deliveries, p.collisions)
		}
		if len(b.tx) != len(p.tx) {
			t.Fatalf("%s round %d: %d vs %d transmitters", label, r, len(b.tx), len(p.tx))
		}
		for i := range b.tx {
			if b.tx[i] != p.tx[i] {
				t.Fatalf("%s round %d: transmitter %d is %d (bulk) vs %d (reference)",
					label, r, i, b.tx[i], p.tx[i])
			}
		}
		// A wrong message A shows in the listeners' values the round it
		// is delivered.
		bv, rv := bc.Values(), rc.Values()
		for v := range bv {
			if bv[v] != rv[v] {
				t.Fatalf("%s round %d node %d: value %d (bulk) vs %d (reference)", label, r, v, bv[v], rv[v])
			}
		}
		if err := checkLaneViews(bc); err != nil {
			t.Fatalf("%s round %d: %v", label, r, err)
		}
	}
	// Ablated runs may legitimately not complete; identity is still
	// required for everything that executed.
	if bc.Engine.Metrics != rc.Engine.Metrics {
		t.Fatalf("%s: metrics: bulk %+v, reference %+v", label, bc.Engine.Metrics, rc.Engine.Metrics)
	}
	if bc.Reached() != rc.Reached() {
		t.Fatalf("%s: Reached %d vs %d", label, bc.Reached(), rc.Reached())
	}
}

// checkLaneViews recomputes the bulk path's lane views from first
// principles and reports the first mismatch: each node's key from the
// clustering its clock is on now (its center, or -1 beyond the curtailment
// radius), each better bit from globalMax and the lane's flood value, and,
// once a lane's helper has derived a firing set (window >= 0), each firing
// bit from that key, the clock's clustering and the window's shared
// cluster coin.
func checkLaneViews(c *Compete) error {
	gm := c.globalMax
	for li, name := range []string{"main", "background"} {
		ln := &c.bulk.lanes[li]
		window := ln.firing.window
		var p float64 // the window's participation probability
		if window >= 0 {
			p = decay.Prob(int(window % int64(c.l4)))
		}
		for v := range gm {
			fid := ln.clk[ln.ci[v]].fid
			f := &ln.fines[fid]
			want := f.part.Center[v]
			if f.part.Dist[v] > f.curtail {
				want = -1
			}
			if got := ln.key[v]; got != want {
				return fmt.Errorf("%s lane node %d: key %d, want %d", name, v, got, want)
			}
			wantBit := gm[v] > ln.flood[v]
			if got := ln.better[v>>6]&(1<<(v&63)) != 0; got != wantBit {
				return fmt.Errorf("%s lane node %d: better bit %v, want %v (globalMax %d, flood %d)",
					name, v, got, wantBit, gm[v], ln.flood[v])
			}
			if window < 0 {
				continue
			}
			wantFire := want >= 0 && rng.HashFloat(ln.coinSeed, uint64(fid), uint64(want), uint64(window)) < p
			if got := ln.firing.bits[v>>6]&(1<<(v&63)) != 0; got != wantFire {
				return fmt.Errorf("%s lane node %d: firing bit %v, want %v (window %d, fid %d)",
					name, v, got, wantFire, window, fid)
			}
		}
	}
	return nil
}

// equivVariant is one configuration of the bulk-vs-reference sweeps.
type equivVariant struct {
	name string
	cfg  Config
}

// The bulk fast path (contiguous state, shared lane clocks, ActBulk +
// RecvBulk) must be observationally identical to the retained per-node
// reference implementation, round for round: same transmitter sets, same
// delivery/collision counts, same node values after every round, same
// metrics — across graphs, seeds, source patterns and every ablation
// flag. The lane views must hold after every round, and the sweep must
// roll clocks over on both lanes, including main clocks under the
// DisableCurtail and FixedJ ablations. A clock resets its flood at
// offsets 0 and 2*subLen, so a rollover also covers both resets.
func TestBulkMatchesPerNodeRoundForRound(t *testing.T) {
	variants := []equivVariant{
		{"default", Config{}},
		{"hw16", Config{CurtailLogLog: true}},
		{"no-background", Config{DisableBackground: true}},
		{"no-helper", Config{DisableHelper: true}},
		{"no-curtail", Config{DisableCurtail: true}},
	}
	// mainRolled records, per variant, whether some main clock rolled over.
	mainRolled := map[string]bool{}
	bgRolled := false
	for seed := uint64(1); seed <= 2; seed++ {
		for gi, g := range bulkEquivGraphs(seed) {
			d := g.DiameterEstimate()
			sources := map[int]int64{0: 9}
			if gi%2 == 1 { // multi-source with distinct values
				sources = map[int]int64{0: 5, g.N() / 2: 9, g.N() - 1: 2}
			}
			// The FixedJ ablation needs a valid exponent for this d.
			jmin, _ := cluster.JRange(d)
			vars := append(slices.Clone(variants), equivVariant{"fixed-j", Config{FixedJ: jmin}})
			for _, vr := range vars {
				bc, err := New(NewPre(g, d, vr.cfg), seed, sources)
				if err != nil {
					t.Fatal(err)
				}
				rc, err := New(NewPre(g, d, vr.cfg), seed, sources)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s %s seed=%d", g, vr.name, seed)
				lockstep(t, label, bc, perNode(rc), 8*bc.Budget())
				if slices.ContainsFunc(bc.bulk.lanes[0].clk, func(cl laneClock) bool { return cl.k > 0 }) {
					mainRolled[vr.name] = true
				}
				bgRolled = bgRolled || bc.bulk.lanes[1].clk[0].k > 0
				if vr.name == "default" && !bc.Done() {
					t.Fatalf("%s: default run incomplete within budget", label)
				}
			}
		}
	}
	if !bgRolled {
		t.Error("the background clock never rolled over, so its lane keys were never rewritten")
	}
	for _, name := range []string{"default", "no-curtail", "fixed-j"} {
		if !mainRolled[name] {
			t.Errorf("%s: no main clock rolled over, so its lane keys were never rewritten", name)
		}
	}
}

// laneCounter wraps a bulk protocol and attributes, per engine phase
// t mod numLanes (main ICP, main helper, background ICP, background
// helper), the deliveries that raised a listener's globalMax and the
// increments of the instance's progress count.
type laneCounter struct {
	*bulkState
	raised, reached [numLanes]int64
	before          []int64
}

func (lc *laneCounter) RecvBulk(t int64, listeners, msgIdx []int32, msgs []radio.Message) {
	gm := lc.c.globalMax
	lc.before = lc.before[:0]
	for _, v := range listeners {
		lc.before = append(lc.before, gm[v])
	}
	reached := lc.c.prog.Count()
	lc.bulkState.RecvBulk(t, listeners, msgIdx, msgs)
	phase := t % numLanes
	for k, v := range listeners {
		if gm[v] > lc.before[k] {
			lc.raised[phase]++
		}
	}
	lc.reached[phase] += lc.c.prog.Count() - reached
}

// The per-lane attribution of a broadcast's progress: run through a
// counting wrapper on a fresh engine, every node that learns the highest
// message is credited to exactly one phase, so the four reach counts sum
// to Reached() minus the sources that started with it, and each phase's
// reach count is at most its count of raising deliveries.
func TestLaneAttribution(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Grid(16, 16), graph.Path(1024)} {
		sources := map[int]int64{0: 5, g.N() / 2: 9, g.N() - 1: 9}
		c, err := New(NewPre(g, g.DiameterEstimate(), Config{}), 1, sources)
		if err != nil {
			t.Fatal(err)
		}
		lc := &laneCounter{bulkState: c.bulk}
		c.Engine = radio.NewEngine(g, lc)
		if res := c.Run(0); !res.Done {
			t.Fatalf("%s: broadcast incomplete after %d rounds", g, res.Rounds)
		}
		var sum int64
		for phase, n := range lc.reached {
			if n > lc.raised[phase] {
				t.Errorf("%s phase %d: %d nodes reached the highest message, but only %d deliveries raised a value",
					g, phase, n, lc.raised[phase])
			}
			sum += n
		}
		if want := int64(c.Reached() - 2); sum != want {
			t.Errorf("%s: %d nodes credited to a phase, want Reached %d minus 2 sources = %d", g, sum, c.Reached(), want)
		}
		t.Logf("%s: per phase (main ICP, main helper, background ICP, background helper): globalMax raised %v, reached the highest message %v",
			g, lc.raised, lc.reached)
	}
}

// TestBulkLeaderMatchesPerNodeRoundForRound is the same oracle for leader
// election (Algorithm 6): many candidates with distinct IDs, so values
// keep rising and the inward sub-phase's better gate is busy. The bulk
// path and a perNode reference built by NewLeaderElection from the
// same seed must agree round for round, and the bulk run must elect a
// leader.
func TestBulkLeaderMatchesPerNodeRoundForRound(t *testing.T) {
	variants := []equivVariant{
		{"default", Config{}},
		{"hw16", Config{CurtailLogLog: true}},
		{"no-background", Config{DisableBackground: true}},
	}
	for seed := uint64(1); seed <= 2; seed++ {
		for _, g := range bulkEquivGraphs(seed) {
			d := g.DiameterEstimate()
			for _, vr := range variants {
				bl, err := NewLeaderElection(NewPre(g, d, vr.cfg), seed)
				if err != nil {
					t.Fatal(err)
				}
				rl, err := NewLeaderElection(NewPre(g, d, vr.cfg), seed)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s leader %s seed=%d (%d candidates)", g, vr.name, seed, len(bl.Candidates()))
				lockstep(t, label, bl.Compete, perNode(rl.Compete), 8*bl.Budget())
				if vr.name == "default" {
					if err := bl.Verify(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
		}
	}
}

// A Pre is immutable, so runs may share one across goroutines: a
// broadcast and a leader election built and run concurrently from one
// *Pre must equal the same runs made sequentially, each from its own Pre.
// CI's -race step checks the sharing itself.
func TestSharedPreIsBitIdentical(t *testing.T) {
	g := graph.Gnp(64, 0.06, rng.New(4))
	d := g.DiameterEstimate()
	type outcome struct {
		rounds int64
		m      radio.Metrics
		values []int64
		leader int
	}
	// run builds and runs the broadcast (leader false) or the leader
	// election on pre under seed.
	run := func(pre *Pre, leader bool, seed uint64) (outcome, error) {
		var c *Compete
		out := outcome{leader: -1}
		if leader {
			le, err := NewLeaderElection(pre, seed)
			if err != nil {
				return out, err
			}
			res := le.Run(le.Budget())
			if !res.Done || res.Verify() != nil {
				return out, errors.New("leader election incomplete or unverified")
			}
			c, out.rounds, out.leader = le.Compete, res.Rounds, le.Leader()
		} else {
			b, err := New(pre, seed, map[int]int64{0: 9})
			if err != nil {
				return out, err
			}
			res := b.Run(b.Budget())
			if !res.Done {
				return out, errors.New("broadcast incomplete")
			}
			c, out.rounds = b, res.Rounds
		}
		out.m, out.values = c.Engine.Metrics, c.Values()
		return out, nil
	}
	for _, seed := range []uint64{1, 2} {
		shared := NewPre(g, d, Config{})
		var got [2]outcome
		var errs [2]error
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = run(shared, i == 1, seed)
			}()
		}
		wg.Wait()
		for i := range got {
			want, err := run(NewPre(g, d, Config{}), i == 1, seed)
			if err != nil || errs[i] != nil {
				t.Fatalf("seed %d leader=%v: sequential err %v, concurrent err %v", seed, i == 1, err, errs[i])
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("seed %d leader=%v: concurrent run on a shared Pre (%d rounds, %+v, leader %d) differs from sequential (%d rounds, %+v, leader %d)",
					seed, i == 1, got[i].rounds, got[i].m, got[i].leader, want.rounds, want.m, want.leader)
			}
		}
	}
}
