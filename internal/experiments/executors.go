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

// ExecutorResult is one executor's measurement in an ExecutorSweepRow.
type ExecutorResult struct {
	// T is the best of the timed warm solves and Speedup TSeq over it.
	T       time.Duration
	Speedup float64
	// Waits and Levels are the last warm solve's busy-wait poll count and
	// executed level count (zero for the doacross, which runs no levels).
	Waits  int64
	Levels int
	// ColdInspect is the preprocessing time of the untimed first solve
	// (for a wavefront, graph build + level decomposition + schedule);
	// WarmInspect is the last warm solve's, which the schedule cache reduces
	// to a memo lookup, and WarmCached whether that solve hit the cache.
	ColdInspect time.Duration
	WarmInspect time.Duration
	WarmCached  bool
}

// ExecutorSweepRow compares the runtime's execution strategies on one
// triangular-solve workload at one worker count: every ExecutorKind — the
// busy-wait doacross, the pre-scheduled static and dynamic wavefronts and
// the Auto selection — measured the same way, plus what Auto picked and why.
type ExecutorSweepRow struct {
	Problem string
	Workers int
	TSeq    time.Duration
	// Exec is indexed by ExecutorKind: the fixed executors, then Auto.
	Exec [doacross.Auto + 1]ExecutorResult

	// AutoPicked names the executor the Auto selection chose, AutoCosts the
	// coefficients it measured on the live pool (self-calibration probe),
	// and Predicted the cost model's estimates behind the pick, indexed by
	// arm.
	AutoPicked string
	AutoCosts  doacross.AutoCosts
	Predicted  [tune.NumExecutors]float64
	Checks     string
}

// RunExecutorSweep measures every ExecutorKind over the given problems and
// worker counts. Each executor gets a fresh solver, one untimed cold solve
// (whose preprocessing time is the cold inspection), then repeat timed warm
// solves, of which the best wins, as in the other live experiments.
func RunExecutorSweep(probs []stencil.Problem, workers []int, repeat int) ([]ExecutorSweepRow, error) {
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
			row := ExecutorSweepRow{Problem: prob.String(), Workers: p, TSeq: seqSample.Min(), Checks: "results match"}
			opts := liveSolverOptions(p, 32)
			for k := range row.Exec {
				kindOpts := append(opts[:len(opts):len(opts)], doacross.WithExecutor(doacross.ExecutorKind(k)))
				rep, out, err := measureExecutor(l, rhs, kindOpts, repeat, &row.Exec[k])
				if err != nil {
					return nil, err
				}
				row.Exec[k].Speedup = trace.Speedup(row.TSeq, row.Exec[k].T)
				if c := checkClose(want, out); c != "results match" {
					row.Checks = c
				}
				if doacross.ExecutorKind(k) == doacross.Auto {
					row.AutoPicked = rep.Executor
					row.AutoCosts = rep.AutoCosts
					row.Predicted = [tune.NumExecutors]float64{rep.PredictedDoacrossNs, rep.PredictedWavefrontNs, rep.PredictedDynamicNs}
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// measureExecutor fills res from one executor's measurement on a fresh
// solver built with opts: one untimed cold solve, then repeat timed warm
// solves. It returns the last warm solve's report and result.
func measureExecutor(l *doacross.Triangular, rhs []float64, opts []doacross.Option, repeat int, res *ExecutorResult) (doacross.Report, []float64, error) {
	solver, err := doacross.NewSolver(l, opts...)
	if err != nil {
		return doacross.Report{}, nil, err
	}
	defer solver.Close()
	out := make([]float64, l.N)
	rep, _, err := solverSolve(solver, rhs, out)
	if err != nil {
		return doacross.Report{}, nil, err
	}
	res.ColdInspect = rep.PreTime
	sample := trace.Measure(repeat, func() {
		if err == nil {
			rep, _, err = solverSolve(solver, rhs, out)
		}
	})
	if err != nil {
		return doacross.Report{}, nil, err
	}
	res.T = sample.Min()
	res.Waits, res.Levels = rep.WaitPolls, rep.Levels
	res.WarmInspect, res.WarmCached = rep.PreTime, rep.InspectCached
	return rep, out, nil
}

// FormatExecutorSweep renders the executor comparison, one line per
// executor; the Auto line names the executor Auto picked.
func FormatExecutorSweep(rows []ExecutorSweepRow) string {
	var b strings.Builder
	b.WriteString("Executor sweep (live): every executor on a fresh solver, best warm solve after one untimed cold solve\n")
	fmt.Fprintf(&b, "%-8s %3s %12s %-24s %12s %7s %9s %8s %12s %12s %s\n",
		"problem", "P", "Tseq", "executor", "T", "S", "waits", "levels", "coldInspect", "warmInspect", "check")
	for _, r := range rows {
		for k, e := range r.Exec {
			name := doacross.ExecutorKind(k).String()
			if doacross.ExecutorKind(k) == doacross.Auto {
				name += " (" + r.AutoPicked + ")"
			}
			fmt.Fprintf(&b, "%-8s %3d %12v %-24s %12v %7.2f %9d %8d %12v %12v %s\n",
				r.Problem, r.Workers, r.TSeq, name, e.T, e.Speedup, e.Waits, e.Levels,
				e.ColdInspect, e.WarmInspect, r.Checks)
		}
	}
	return b.String()
}

// CheckExecutorSweep verifies the sweep's qualitative claims: every
// executor reproduced the sequential result; every warm solve that ran a
// level decomposition hit the schedule cache and never busy-waited (the
// level barrier replaces the waits); and the Auto pick, made with valid
// calibrated costs, is consistent with its own predictions.
func CheckExecutorSweep(rows []ExecutorSweepRow) []string {
	var problems []string
	for _, r := range rows {
		if r.Checks != "results match" {
			problems = append(problems, fmt.Sprintf("%s P=%d: %s", r.Problem, r.Workers, r.Checks))
		}
		for k, e := range r.Exec {
			if e.Levels == 0 {
				continue
			}
			name := doacross.ExecutorKind(k)
			if !e.WarmCached {
				problems = append(problems, fmt.Sprintf("%s P=%d: %s warm solve missed the schedule cache", r.Problem, r.Workers, name))
			}
			if e.Waits != 0 {
				problems = append(problems, fmt.Sprintf("%s P=%d: %s ran levels but busy-waited (%d polls)", r.Problem, r.Workers, name, e.Waits))
			}
		}
		if !r.AutoCosts.Valid() {
			problems = append(problems, fmt.Sprintf("%s P=%d: auto selection reported no calibrated costs (%+v)", r.Problem, r.Workers, r.AutoCosts))
		} else if r.Exec[doacross.Auto].Levels > 1 || r.AutoPicked != tune.ExecutorName(tune.Wavefront) {
			// A single barrier-free level short-circuits to the static
			// wavefront regardless of the predictions, so a wavefront pick is
			// held to prediction consistency only when it ran more than one
			// level; any other pick can only have come from the cost model
			// and is always checked.
			if predicted := tune.ExecutorName(tune.Best(r.Predicted)); r.AutoPicked != predicted {
				problems = append(problems, fmt.Sprintf("%s P=%d: auto picked %s but its own predictions favor %s", r.Problem, r.Workers, r.AutoPicked, predicted))
			}
		}
	}
	return problems
}
