// Package trace records per-round channel activity of a radio simulation
// and renders compact text reports: how busy the channel was over time,
// how much of the traffic was lost to collisions, and which nodes
// transmitted most. It attaches to an engine via the RoundHook.
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"radionet/internal/radio"
)

// Sample is one recorded bucket of rounds: the summed transmitter,
// delivery and collision counts over the rounds it covers. While the
// recorder is below its sample cap each Sample covers exactly one round;
// past the cap, adjacent buckets merge pairwise (see MaxSamples), so a
// Sample covers Scale() rounds and all sums stay exact.
type Sample struct {
	Transmitters int
	Deliveries   int
	Collisions   int
}

func (s Sample) add(o Sample) Sample {
	return Sample{
		Transmitters: s.Transmitters + o.Transmitters,
		Deliveries:   s.Deliveries + o.Deliveries,
		Collisions:   s.Collisions + o.Collisions,
	}
}

// DefaultMaxSamples is the sample cap applied when MaxSamples is 0: small
// enough that a multi-million-round n=1e5 run stays at ~100KB of samples,
// large enough that a 64-column Timeline has dozens of buckets per cell.
const DefaultMaxSamples = 4096

// Recorder accumulates round samples and per-node transmission counts.
// The zero value is ready to use; install HookFunc on an engine (chained
// with radio.ChainHooks) or a campaign (Campaign.Hook). Memory is
// bounded: Samples holds at most MaxSamples buckets (rounds are merged
// pairwise past the cap, keeping Totals and Rounds exact), and PerNode
// has one entry per node that ever transmitted.
type Recorder struct {
	Samples []Sample
	PerNode map[int32]int64
	// MaxSamples caps len(Samples); 0 selects DefaultMaxSamples. When a
	// new round would exceed the cap, adjacent buckets merge pairwise and
	// the per-bucket round count doubles — totals stay exact, memory
	// stays O(MaxSamples) for arbitrarily long runs.
	MaxSamples int

	scale int64 // rounds per full bucket (power of two; 0 = not started)
	total int64 // exact recorded round count
	fill  int64 // rounds accumulated in the last bucket
}

// HookFunc returns a RoundHook that records into r.
func (r *Recorder) HookFunc() radio.RoundHook {
	if r.PerNode == nil {
		r.PerNode = make(map[int32]int64)
	}
	return func(_ int64, tx []int32, deliveries, collisions int) {
		r.record(Sample{Transmitters: len(tx), Deliveries: deliveries, Collisions: collisions})
		for _, v := range tx {
			r.PerNode[v]++ //lint:hookstate single-engine recorder; Recorder is documented non-concurrent
		}
	}
}

func (r *Recorder) sampleCap() int {
	if r.MaxSamples > 0 {
		return r.MaxSamples
	}
	return DefaultMaxSamples
}

// record folds one round into the bucket structure.
func (r *Recorder) record(s Sample) {
	if r.scale == 0 {
		r.scale = 1
	}
	if len(r.Samples) > 0 && r.fill == r.scale && len(r.Samples) >= r.sampleCap() {
		r.compact()
	}
	if len(r.Samples) == 0 || r.fill == r.scale {
		r.Samples = append(r.Samples, Sample{})
		r.fill = 0
	}
	r.Samples[len(r.Samples)-1] = r.Samples[len(r.Samples)-1].add(s)
	r.fill++
	r.total++
}

// compact merges adjacent sample pairs and doubles the bucket scale.
// Called only when every bucket is full, so the merged buckets cover
// exactly the new scale — except an odd tail bucket, which stays
// half-full and absorbs the next scale/2 rounds.
func (r *Recorder) compact() {
	n := len(r.Samples)
	for i := 0; i+1 < n; i += 2 {
		r.Samples[i/2] = r.Samples[i].add(r.Samples[i+1])
	}
	if n%2 == 1 {
		r.Samples[n/2] = r.Samples[n-1]
	}
	r.Samples = r.Samples[:(n+1)/2]
	r.scale *= 2
	if n%2 == 1 {
		r.fill = r.scale / 2
	} else {
		r.fill = r.scale
	}
}

// Scale returns the number of rounds each full Sample bucket covers (1
// until the sample cap is first reached; the last bucket may be partial).
func (r *Recorder) Scale() int64 {
	if r.scale == 0 {
		return 1
	}
	return r.scale
}

// Rounds returns the exact number of recorded rounds.
func (r *Recorder) Rounds() int { return int(r.total) }

// Totals returns the summed transmitters, deliveries and collisions.
// Totals are exact regardless of downsampling.
func (r *Recorder) Totals() (tx, deliveries, collisions int64) {
	for _, s := range r.Samples {
		tx += int64(s.Transmitters)
		deliveries += int64(s.Deliveries)
		collisions += int64(s.Collisions)
	}
	return tx, deliveries, collisions
}

// Busiest returns the k nodes with the most transmissions, busiest first.
func (r *Recorder) Busiest(k int) []struct {
	Node int32
	Tx   int64
} {
	type nt struct {
		Node int32
		Tx   int64
	}
	all := make([]nt, 0, len(r.PerNode))
	for v, c := range r.PerNode {
		all = append(all, nt{v, c})
	}
	slices.SortFunc(all, func(a, b nt) int {
		if a.Tx != b.Tx {
			return cmp.Compare(b.Tx, a.Tx) // busiest first
		}
		return cmp.Compare(a.Node, b.Node)
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]struct {
		Node int32
		Tx   int64
	}, k)
	for i := 0; i < k; i++ {
		out[i] = struct {
			Node int32
			Tx   int64
		}{all[i].Node, all[i].Tx}
	}
	return out
}

const sparks = " .:-=+*#%@"

// sampleRounds returns the number of rounds Samples[i] covers (the last
// bucket may be partial).
func (r *Recorder) sampleRounds(i int) int64 {
	if i == len(r.Samples)-1 && r.fill > 0 {
		return r.fill
	}
	return r.Scale()
}

// Timeline renders channel load (mean transmitters per round) as a
// sparkline of the given width, bucketing samples evenly.
func (r *Recorder) Timeline(width int) string {
	if width <= 0 || len(r.Samples) == 0 {
		return ""
	}
	if width > len(r.Samples) {
		width = len(r.Samples)
	}
	buckets := make([]float64, width)
	per := float64(len(r.Samples)) / float64(width)
	max := 0.0
	for b := range buckets {
		lo := int(float64(b) * per)
		hi := int(float64(b+1) * per)
		if hi > len(r.Samples) {
			hi = len(r.Samples)
		}
		sum, rounds := 0.0, int64(0)
		for i := lo; i < hi; i++ {
			sum += float64(r.Samples[i].Transmitters)
			rounds += r.sampleRounds(i)
		}
		if rounds > 0 {
			buckets[b] = sum / float64(rounds)
		}
		if buckets[b] > max {
			max = buckets[b]
		}
	}
	var sb strings.Builder
	for _, v := range buckets {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(sparks)-1))
		}
		sb.WriteByte(sparks[idx])
	}
	return sb.String()
}

// Report writes a human-readable activity summary.
func (r *Recorder) Report(w io.Writer) error {
	tx, del, col := r.Totals()
	var sb strings.Builder
	fmt.Fprintf(&sb, "rounds:        %d\n", r.Rounds())
	fmt.Fprintf(&sb, "transmissions: %d\n", tx)
	fmt.Fprintf(&sb, "deliveries:    %d\n", del)
	fmt.Fprintf(&sb, "collisions:    %d (listener-rounds)\n", col)
	if tx > 0 {
		fmt.Fprintf(&sb, "deliveries/tx: %.2f\n", float64(del)/float64(tx))
	}
	fmt.Fprintf(&sb, "channel load:  [%s]\n", r.Timeline(64))
	if top := r.Busiest(5); len(top) > 0 {
		fmt.Fprintf(&sb, "busiest nodes:")
		for _, b := range top {
			fmt.Fprintf(&sb, " %d(%d)", b.Node, b.Tx)
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
