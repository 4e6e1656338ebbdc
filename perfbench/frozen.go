package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	_ "radionet/perfbench/frozen/compete" // registers broadcast:cd17 and leader:cd17
	fprotocol "radionet/perfbench/frozen/protocol"
	fradio "radionet/perfbench/frozen/radio"
	"radionet/perfbench/frozen/topology"
)

// The reference host is shared, and its speed drifts by up to half
// between runs minutes apart, for this code but not for a fixed kernel.
// So every untraced campaign is paired with the same campaign — same
// graph, same trial seed — run by a frozen copy of the simulator in
// frozen/: the packages behind cd17 as they stood when the benchmark was
// defined, with their import paths moved under perfbench. No change to
// radionet moves the copy, and both sides of a pair see the same host,
// so their ratio measures the change and not the host. The copy runs in
// its own process, so that the run's peak RSS is radionet's alone.

// frozenJob is one campaign's seeds and budget, sent to the reference.
type frozenJob struct {
	TopoSeed  uint64 `json:"topo_seed"`
	TrialSeed uint64 `json:"trial_seed"`
	MaxRounds int64  `json:"max_rounds"`
}

// frozenResult is what the reference measured of one campaign, split
// into setup and run phases as Campaign.Run splits them.
type frozenResult struct {
	Rounds int64         `json:"rounds"`
	Setup  time.Duration `json:"setup_ns"`
	Wall   time.Duration `json:"wall_ns"`
	CPU    time.Duration `json:"cpu_ns"`
	Err    string        `json:"err,omitempty"`
}

// runFrozen runs one campaign's single trial with the frozen copy: the
// topology product and scratch as setup, then Build and Run. Only the
// costs matter here; the gate judges radionet's own trials.
func runFrozen(w workload, job frozenJob) frozenResult {
	topo, err := topology.ParseTopology(w.Topology)
	if err != nil {
		return frozenResult{Err: err.Error()}
	}
	desc, ok := fprotocol.Lookup(fprotocol.Task(w.Algo.Task), w.Algo.Algo)
	if !ok {
		return frozenResult{Err: fmt.Sprintf("frozen copy has no %s", w.Algo)}
	}
	cpu0, t0 := cpuTime(), time.Now()
	g := topo.Build(job.TopoSeed)
	d := g.DiameterEstimate()
	g.DenseAdj()
	var scr any
	if desc.NewScratch != nil {
		scr = desc.NewScratch(g, d, nil)
	}
	res := frozenResult{Setup: time.Since(t0)}
	t1 := time.Now()
	var engines fradio.EngineSet
	r, err := desc.Build(fprotocol.BuildParams{G: g, D: d, Seed: job.TrialSeed, Sources: desc.DefaultSources(), Scratch: scr, Engines: &engines})
	if err != nil {
		return frozenResult{Err: err.Error()}
	}
	out := r.Run(job.MaxRounds)
	engines.Close()
	res.Wall, res.CPU, res.Rounds = time.Since(t1), cpuTime()-cpu0, out.Rounds
	return res
}

// serveFrozen answers a parent run's jobs, one JSON line each way, until
// its standard input closes.
func serveFrozen(w workload, in io.Reader, out io.Writer) error {
	dec, enc := json.NewDecoder(in), json.NewEncoder(out)
	for {
		var job frozenJob
		if err := dec.Decode(&job); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
		runtime.GC() // as the live side does before each campaign
		if err := enc.Encode(runFrozen(w, job)); err != nil {
			return err
		}
	}
}

// reference runs frozen campaigns for an untraced run.
type reference interface {
	run(frozenJob) (frozenResult, error)
}

// childReference is this binary run again with -frozen: the reference in
// a process of its own.
type childReference struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

func startChildReference(w workload) (*childReference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-frozen", "-workload", w.Name)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start the frozen reference: %w", err)
	}
	return &childReference{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(out)}, nil
}

func (c *childReference) run(job frozenJob) (frozenResult, error) {
	var res frozenResult
	if err := c.enc.Encode(job); err != nil {
		return res, fmt.Errorf("frozen reference: %w", err)
	}
	if err := c.dec.Decode(&res); err != nil {
		return res, fmt.Errorf("frozen reference: %w", err)
	}
	if res.Err != "" {
		return res, fmt.Errorf("frozen reference: %s", res.Err)
	}
	return res, nil
}

// close ends the child's input and waits for it to exit.
func (c *childReference) close() error {
	c.in.Close()
	return c.cmd.Wait()
}

// inProcessReference runs the frozen copy in the calling process; tests
// use it, since a test binary cannot be run again with -frozen.
type inProcessReference struct{ w workload }

func (r inProcessReference) run(job frozenJob) (frozenResult, error) {
	runtime.GC()
	res := runFrozen(r.w, job)
	if res.Err != "" {
		return res, fmt.Errorf("frozen reference: %s", res.Err)
	}
	return res, nil
}
