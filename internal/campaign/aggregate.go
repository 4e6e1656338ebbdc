package campaign

import "radionet/internal/stats"

// Dist is the rendered distribution of one metric over a configuration's
// trials.
type Dist struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

func distOf(r *stats.Running) Dist {
	return Dist{
		Mean: r.Mean(),
		Std:  r.Std(),
		P50:  r.Quantile(0.5),
		P90:  r.Quantile(0.9),
		P99:  r.Quantile(0.99),
		Max:  r.Max(),
	}
}

// ConfigSummary is the aggregate of every trial of one configuration —
// one output row of a campaign.
type ConfigSummary struct {
	Topology string `json:"topology"`
	N        int    `json:"n"`
	D        int    `json:"d"`
	Task     string `json:"task"`
	Algo     string `json:"algo"`
	Trials   int    `json:"trials"`
	// Failures counts trials that did not complete within budget (or
	// failed to construct).
	Failures int  `json:"failures"`
	Rounds   Dist `json:"rounds"`
	Tx       Dist `json:"transmissions"`
	// WallMS is present only when the campaign ran with Timings: wall
	// time is non-deterministic and would break byte-identical output.
	WallMS *Dist `json:"wall_ms,omitempty"`
	// Present only on a matrix with Faults {"none"}, so other campaign
	// output stays byte-identical: the distribution of per-trial reach
	// fractions (reached / n; 1.0 exactly when the trial completed), and
	// failed-trial counts keyed by reason.
	Reach       *Dist          `json:"reach,omitempty"`
	FailReasons map[string]int `json:"fail_reasons,omitempty"`
}

// summarize aggregates one configuration from its trials' results, given
// in repetition order — never completion order — so the floating-point
// reductions are identical for every worker count.
func summarize(cfg *Config, results []TrialResult, timings bool) ConfigSummary {
	var rounds, tx, wall, reach stats.Running
	var reasons map[string]int
	failures := 0
	for _, r := range results {
		if !r.Done {
			failures++
		}
		rounds.Add(float64(r.Rounds))
		tx.Add(float64(r.Tx))
		wall.Add(float64(r.Wall.Nanoseconds()) / 1e6)
		if cfg.reach {
			f := 1.0
			if r.ReachTarget > 0 {
				f = float64(r.Reached) / float64(r.ReachTarget)
			}
			reach.Add(f)
			if !r.Done {
				if reasons == nil {
					reasons = map[string]int{}
				}
				reason := r.Reason
				if reason == "" {
					reason = "budget"
				}
				reasons[reason]++
			}
		}
	}
	s := ConfigSummary{
		Topology: cfg.Topology,
		N:        cfg.G.N(),
		D:        cfg.D,
		Task:     string(cfg.Spec.Task),
		Algo:     cfg.Spec.Algo,
		Trials:   len(results),
		Failures: failures,
		Rounds:   distOf(&rounds),
		Tx:       distOf(&tx),
	}
	if timings {
		w := distOf(&wall)
		s.WallMS = &w
	}
	if cfg.reach {
		rc := distOf(&reach)
		s.Reach = &rc
		s.FailReasons = reasons
	}
	return s
}
