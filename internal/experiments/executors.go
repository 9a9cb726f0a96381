package experiments

import (
	"fmt"
	"strings"
	"time"

	"doacross"
	"doacross/internal/stencil"
	"doacross/internal/trace"
	"doacross/internal/tune"
)

// ExecutorSweepNames lists the executors the live sweep can measure, in
// reporting order: the valid values of doabench's -executors flag.
var ExecutorSweepNames = []string{"doacross", "wavefront", "wavefront-dynamic", "auto"}

// ExecutorSweepRow compares the runtime's execution strategies on one
// triangular-solve workload at one worker count: the busy-wait doacross
// against the pre-scheduled wavefront executor and its dynamic within-level
// variant, plus what the Auto selection picks and how much of the
// wavefront's inspection the schedule cache amortizes away. Executors
// excluded from the sweep leave their fields zero.
type ExecutorSweepRow struct {
	Problem string
	Workers int

	TSeq       time.Duration
	TDoacross  time.Duration
	TWavefront time.Duration
	TDynamic   time.Duration
	TAuto      time.Duration

	DoacrossSpeedup  float64
	WavefrontSpeedup float64
	DynamicSpeedup   float64
	AutoSpeedup      float64

	// DoacrossWaits is the doacross's aggregate busy-wait poll count;
	// WavefrontWaits and DynamicWaits must be zero by construction and are
	// recorded so the check below can enforce that invariant.
	DoacrossWaits  int64
	WavefrontWaits int64
	DynamicWaits   int64
	// Levels is the wavefront decomposition's level count.
	Levels int

	// ColdInspect is the wavefront preprocessing time of the first solve
	// (graph build + level decomposition + schedule); WarmInspect is the
	// preprocessing time of a later solve on the same solver, which the
	// schedule cache reduces to a memo lookup.
	ColdInspect time.Duration
	WarmInspect time.Duration
	// WarmCached reports whether the warm solve actually hit the cache.
	WarmCached bool

	// AutoPicked names the executor the Auto selection chose, AutoCosts the
	// coefficients it measured on the live pool (self-calibration probe),
	// and the Predicted*Ns fields the cost model's three estimates behind
	// the pick.
	AutoPicked           string
	AutoCosts            doacross.AutoCosts
	PredictedDoacrossNs  float64
	PredictedWavefrontNs float64
	PredictedDynamicNs   float64
	Checks               string
}

// sweepSelection resolves the executor subset of one sweep: nil or empty
// means all of ExecutorSweepNames, and an unknown name is rejected with the
// valid set spelled out.
func sweepSelection(execs []string) (map[string]bool, error) {
	enabled := make(map[string]bool, len(ExecutorSweepNames))
	if len(execs) == 0 {
		for _, name := range ExecutorSweepNames {
			enabled[name] = true
		}
		return enabled, nil
	}
	for _, name := range execs {
		valid := false
		for _, known := range ExecutorSweepNames {
			if name == known {
				valid = true
				break
			}
		}
		if !valid {
			return nil, fmt.Errorf("experiments: unknown executor %q (valid: %s)", name, strings.Join(ExecutorSweepNames, ", "))
		}
		enabled[name] = true
	}
	return enabled, nil
}

// RunExecutorSweep sweeps the selected executors over the given problems and
// worker counts, repeat runs per measurement (best time wins, as in the
// other live experiments). With no executor names it measures all of
// ExecutorSweepNames; an unknown name is an error naming the valid set.
func RunExecutorSweep(probs []stencil.Problem, workers []int, repeat int, execs ...string) ([]ExecutorSweepRow, error) {
	enabled, err := sweepSelection(execs)
	if err != nil {
		return nil, err
	}
	var rows []ExecutorSweepRow
	for _, prob := range probs {
		l, _, err := stencil.LowerFactor(prob, 1)
		if err != nil {
			return nil, err
		}
		rhs := stencil.RHS(l.N, 7)
		var want []float64
		seqSample := trace.Measure(repeat, func() {
			want = doacross.SolveSequential(l, rhs)
		})

		for _, p := range workers {
			row := ExecutorSweepRow{Problem: prob.String(), Workers: p, TSeq: seqSample.Min()}
			opts := liveSolverOptions(p, 32)
			row.Checks = "results match"
			check := func(got []float64) {
				if c := checkClose(want, got); c != "results match" {
					row.Checks = c
				}
			}
			// measure times repeat solves on a fresh solver built with the
			// extra options, returning the best time and the last report.
			measure := func(extra ...doacross.Option) (time.Duration, doacross.Report, error) {
				solver, err := doacross.NewSolver(l, append(append([]doacross.Option(nil), opts...), extra...)...)
				if err != nil {
					return 0, doacross.Report{}, err
				}
				defer solver.Close()
				out := make([]float64, l.N)
				var runErr error
				var rep doacross.Report
				sample := trace.Measure(repeat, func() {
					r, _, e := solverSolve(solver, rhs, out)
					if e != nil {
						runErr = e
					}
					rep = r
				})
				if runErr != nil {
					return 0, doacross.Report{}, runErr
				}
				check(out)
				return sample.Min(), rep, nil
			}

			if enabled["doacross"] {
				t, rep, err := measure()
				if err != nil {
					return nil, err
				}
				row.TDoacross = t
				row.DoacrossWaits = rep.WaitPolls
				row.DoacrossSpeedup = trace.Speedup(row.TSeq, t)
			}

			if enabled["wavefront"] {
				// The static wavefront additionally separates the cold solve
				// (graph build + decomposition + schedule) from the warm ones
				// the schedule cache serves.
				wf, err := doacross.NewSolver(l, append(append([]doacross.Option(nil), opts...), doacross.WithExecutor(doacross.Wavefront))...)
				if err != nil {
					return nil, err
				}
				wfOut := make([]float64, l.N)
				coldRep, _, err := solverSolve(wf, rhs, wfOut)
				if err != nil {
					wf.Close()
					return nil, err
				}
				row.ColdInspect = coldRep.PreTime
				row.Levels = coldRep.Levels
				var runErr error
				var wfRep doacross.Report
				wfSample := trace.Measure(repeat, func() {
					rep, _, e := solverSolve(wf, rhs, wfOut)
					if e != nil {
						runErr = e
					}
					wfRep = rep
				})
				wf.Close()
				if runErr != nil {
					return nil, runErr
				}
				check(wfOut)
				row.TWavefront = wfSample.Min()
				row.WarmInspect = wfRep.PreTime
				row.WarmCached = wfRep.InspectCached
				row.WavefrontWaits = wfRep.WaitPolls
				row.WavefrontSpeedup = trace.Speedup(row.TSeq, row.TWavefront)
			}

			if enabled["wavefront-dynamic"] {
				t, rep, err := measure(doacross.WithExecutor(doacross.WavefrontDynamic))
				if err != nil {
					return nil, err
				}
				row.TDynamic = t
				row.DynamicWaits = rep.WaitPolls
				row.DynamicSpeedup = trace.Speedup(row.TSeq, t)
				if row.Levels == 0 {
					row.Levels = rep.Levels
				}
			}

			if enabled["auto"] {
				t, autoRep, err := measure(doacross.WithExecutor(doacross.Auto))
				if err != nil {
					return nil, err
				}
				row.TAuto = t
				row.AutoSpeedup = trace.Speedup(row.TSeq, t)
				row.AutoPicked = autoRep.Executor
				row.AutoCosts = autoRep.AutoCosts
				row.PredictedDoacrossNs = autoRep.PredictedDoacrossNs
				row.PredictedWavefrontNs = autoRep.PredictedWavefrontNs
				row.PredictedDynamicNs = autoRep.PredictedDynamicNs
				if row.Levels == 0 {
					// With both wavefront executors excluded from the sweep,
					// the Auto run is the only source of the level count; the
					// consistency check below gates on it.
					row.Levels = autoRep.Levels
				}
			}

			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatExecutorSweep renders the executor comparison.
func FormatExecutorSweep(rows []ExecutorSweepRow) string {
	var b strings.Builder
	b.WriteString("Executor sweep (live): busy-wait doacross vs pre-scheduled wavefront (static and dynamic)\n")
	fmt.Fprintf(&b, "%-8s %3s %12s %12s %12s %12s %7s %7s %7s %9s %8s %12s %12s %-17s %s\n",
		"problem", "P", "Tseq", "Tdoacross", "Twavefront", "Twfdynamic", "S(da)", "S(wf)", "S(dyn)", "waits", "levels", "coldInspect", "warmInspect", "auto", "check")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %3d %12v %12v %12v %12v %7.2f %7.2f %7.2f %9d %8d %12v %12v %-17s %s\n",
			r.Problem, r.Workers, r.TSeq, r.TDoacross, r.TWavefront, r.TDynamic,
			r.DoacrossSpeedup, r.WavefrontSpeedup, r.DynamicSpeedup, r.DoacrossWaits, r.Levels,
			r.ColdInspect, r.WarmInspect, r.AutoPicked, r.Checks)
	}
	return b.String()
}

// CheckExecutorSweep verifies the sweep's qualitative claims: every measured
// executor reproduced the sequential result, warm solves hit the schedule
// cache, neither wavefront executor ever busy-waits, and the Auto pick is
// consistent with its own three predictions. Checks for executors excluded
// from the sweep are skipped.
func CheckExecutorSweep(rows []ExecutorSweepRow) []string {
	var problems []string
	for _, r := range rows {
		if r.Checks != "results match" {
			problems = append(problems, fmt.Sprintf("%s P=%d: %s", r.Problem, r.Workers, r.Checks))
		}
		if r.TWavefront > 0 {
			if !r.WarmCached {
				problems = append(problems, fmt.Sprintf("%s P=%d: warm solve missed the schedule cache", r.Problem, r.Workers))
			}
			if r.WavefrontWaits != 0 {
				problems = append(problems, fmt.Sprintf("%s P=%d: wavefront executor busy-waited (%d polls)", r.Problem, r.Workers, r.WavefrontWaits))
			}
		}
		if r.TDynamic > 0 && r.DynamicWaits != 0 {
			problems = append(problems, fmt.Sprintf("%s P=%d: dynamic wavefront executor busy-waited (%d polls)", r.Problem, r.Workers, r.DynamicWaits))
		}
		if r.AutoPicked == "" {
			continue
		}
		if r.AutoCosts.BarrierNs <= 0 || r.AutoCosts.FlagCheckNs <= 0 {
			problems = append(problems, fmt.Sprintf("%s P=%d: auto selection reported no calibrated costs (%+v)", r.Problem, r.Workers, r.AutoCosts))
		} else if r.Levels > 1 || r.AutoPicked != "wavefront" {
			// A single barrier-free level short-circuits to the static
			// wavefront regardless of the predictions, so a "wavefront" pick
			// is held to prediction consistency only when the solve is known
			// to be multi-level; any other pick can only have come from the
			// cost model and is always checked.
			predicted := tune.ExecutorName(tune.Best([tune.NumExecutors]float64{
				r.PredictedDoacrossNs, r.PredictedWavefrontNs, r.PredictedDynamicNs}))
			if r.AutoPicked != predicted {
				problems = append(problems, fmt.Sprintf("%s P=%d: auto picked %s but its own predictions favor %s", r.Problem, r.Workers, r.AutoPicked, predicted))
			}
		}
	}
	return problems
}
