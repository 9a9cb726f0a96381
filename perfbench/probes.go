package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"doacross"
	"doacross/internal/sched"
	"doacross/internal/serve"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
)

// Probe sizes: every timed probe repeats its call at least probeMinReps
// times and for at least probeMinTime, and reports the median call.
const (
	probeMinReps = 30
	probeMinTime = 100 * time.Millisecond
	probeMaxReps = 20000
	// agreeRuns is how many fresh self-calibrated solvers per factor
	// tune.probe_pick_agree compares with the pinned pick.
	agreeRuns = 3
)

// probeLayers measures each layer through its exported functions on the
// workload's test problem, with the workload's options, and sets the
// metrics. It returns how many probe answers were wrong.
func probeLayers(w workload, seed int64, m metrics, stderr io.Writer) (int, error) {
	a, err := stencil.Build(w.problem, seed)
	if err != nil {
		return 0, err
	}
	l, u, err := sparse.ILU0(a)
	if err != nil {
		return 0, err
	}
	p := &prober{rhs: rhsPool(l.N, seed+3, 1)[0], stderr: stderr}
	for _, step := range []func() error{
		func() error { return p.ladder(l, w.opts(), m) },
		func() error { return p.factors(l, u, w.opts(), m) },
		func() error { return p.tune(l, u, m) },
		func() error { return p.inspect(l, w.opts(), m) },
		func() error { return p.multi(l, w.opts(), seed, m) },
		func() error { return p.sparseOps(a, m) },
		func() error { return p.schedSubmit(m) },
	} {
		if err := step(); err != nil {
			return p.failures, err
		}
	}
	return p.failures, nil
}

type prober struct {
	rhs      []float64
	failures int
	stderr   io.Writer
}

// verify counts a wrong probe answer.
func (p *prober) verify(what string, got, want []float64) {
	if err := compare(got, want); err != nil {
		p.failures++
		fmt.Fprintf(p.stderr, "probe %s: %v\n", what, err)
	}
}

// timeCall returns the median time of one call in microseconds, after two
// untimed warm-up calls.
func timeCall(f func() error) (float64, error) {
	for i := 0; i < 2; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	var times []float64
	start := time.Now()
	for len(times) < probeMaxReps && (len(times) < probeMinReps || time.Since(start) < probeMinTime) {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, us(time.Since(t0)))
	}
	return median(times), nil
}

// ladder times the public-API rungs of the overhead ladder on one factor:
// raw CSR substitution, the loop body through RunSequential, a full
// Runtime.Run, Solver.Solve, and a SolveService round trip (no coalescing
// window, so the rung is the service's own cost).
func (p *prober) ladder(l *sparse.Triangular, opts []doacross.Option, m metrics) error {
	want := make([]float64, l.N)
	raw, _ := timeCall(func() error { l.Solve(p.rhs, want); return nil })
	m["ladder.raw_us"] = raw

	loop, err := doacross.TrisolveLoop(l, p.rhs)
	if err != nil {
		return err
	}
	y := make([]float64, l.N)
	seq, err := timeCall(func() error { return doacross.RunSequential(loop, y) })
	if err != nil {
		return err
	}
	p.verify("ladder.runseq", y, want)
	m["ladder.runseq_us"] = seq

	rt, err := doacross.New(l.N, opts...)
	if err != nil {
		return err
	}
	defer rt.Close()
	ctx := context.Background()
	run, err := timeCall(func() error { _, err := rt.Run(ctx, loop, y); return err })
	if err != nil {
		return err
	}
	p.verify("ladder.run", y, want)
	m["ladder.run_us"] = run

	s, err := doacross.NewSolver(l, opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	solve, err := timeCall(func() error { _, _, err := s.Solve(p.rhs, y); return err })
	if err != nil {
		return err
	}
	p.verify("ladder.solve", y, want)
	m["ladder.solve_us"] = solve
	m["harness.overhead_x"] = solve / raw

	svc, err := serve.NewSolveService(s, serve.Options{})
	if err != nil {
		return err
	}
	defer svc.Close()
	service, err := timeCall(func() error { y, err = svc.Solve(ctx, p.rhs); return err })
	if err != nil {
		return err
	}
	p.verify("ladder.service", y, want)
	m["ladder.service_us"] = service
	return nil
}

// factorRun is a warm solver's repeated solves of one factor.
type factorRun struct {
	medianUs float64
	reports  []doacross.Report
}

// solveFactor times warm Solver.Solve calls on t and keeps their reports.
func (p *prober) solveFactor(name string, t *sparse.Triangular, opts []doacross.Option) (factorRun, error) {
	s, err := doacross.NewSolver(t, opts...)
	if err != nil {
		return factorRun{}, err
	}
	defer s.Close()
	var run factorRun
	y := make([]float64, t.N)
	run.medianUs, err = timeCall(func() error {
		_, rep, err := s.Solve(p.rhs, y)
		run.reports = append(run.reports, rep)
		return err
	})
	if err != nil {
		return factorRun{}, err
	}
	run.reports = run.reports[2:] // the untimed warm-up calls
	p.verify(name, y, t.Solve(p.rhs, nil))
	return run, nil
}

// factors sets trisolve.lower_us and trisolve.upper_us, and the core
// metrics from the reports those warm solves return.
func (p *prober) factors(l, u *sparse.Triangular, opts []doacross.Option, m metrics) error {
	lr, err := p.solveFactor("trisolve.lower", l, opts)
	if err != nil {
		return err
	}
	ur, err := p.solveFactor("trisolve.upper", u, opts)
	if err != nil {
		return err
	}
	m["trisolve.lower_us"] = lr.medianUs
	m["trisolve.upper_us"] = ur.medianUs

	reports := append(lr.reports, ur.reports...)
	n := float64(len(reports))
	var pre, exec, post time.Duration
	var polls, levels, hits float64
	share := map[string]float64{}
	for _, r := range reports {
		pre += r.PreTime
		exec += r.ExecTime
		post += r.PostTime
		polls += float64(r.WaitPolls)
		levels += float64(r.Levels)
		share[r.Executor]++
		if r.InspectCached {
			hits++
		}
	}
	m["core.pre_us"] = us(pre) / n
	m["core.exec_us"] = us(exec) / n
	m["core.post_us"] = us(post) / n
	m["core.wait_polls"] = polls / n
	m["core.levels"] = levels / n
	for _, e := range []string{"doacross", "wavefront", "wavefront-dynamic"} {
		m["core.exec_share."+e] = share[e] / n
	}
	m["core.cache_hit_frac"] = hits / n
	return nil
}

// predicted is the cost model's estimate for the executor a report ran.
func predicted(r doacross.Report) float64 {
	switch r.Executor {
	case "doacross":
		return r.PredictedDoacrossNs
	case "wavefront":
		return r.PredictedWavefrontNs
	default:
		return r.PredictedDynamicNs
	}
}

// tune measures the Auto selection on both factors: how far the pinned
// model's prediction is from the measured executor time (pred_ratio), how
// much slower the pinned pick is than the best fixed executor (regret), and
// how often a fresh self-calibrated runtime picks what the pinned one does
// (probe_pick_agree).
func (p *prober) tune(l, u *sparse.Triangular, m metrics) error {
	var predNs, execNs, pickUs, bestUs float64
	agree, tries := 0, 0
	for _, t := range []*sparse.Triangular{l, u} {
		pinned, err := p.solveFactor("tune.pinned", t, solverOptions(doacross.Auto, true))
		if err != nil {
			return err
		}
		pick := pinned.reports[0].Executor
		var preds, execs []float64
		for _, r := range pinned.reports {
			if r.Executor != pick {
				return fmt.Errorf("pinned Auto picked both %s and %s on one factor", pick, r.Executor)
			}
			preds = append(preds, predicted(r))
			execs = append(execs, float64(r.ExecTime.Nanoseconds()))
		}
		predNs += median(preds)
		execNs += median(execs)
		pickUs += pinned.medianUs

		best := 0.0
		for _, exec := range []doacross.ExecutorKind{doacross.Doacross, doacross.Wavefront, doacross.WavefrontDynamic} {
			fixed, err := p.solveFactor("tune."+exec.String(), t, solverOptions(exec, false))
			if err != nil {
				return err
			}
			if best == 0 || fixed.medianUs < best {
				best = fixed.medianUs
			}
		}
		bestUs += best

		for i := 0; i < agreeRuns; i++ {
			s, err := doacross.NewSolver(t, solverOptions(doacross.Auto, false)...)
			if err != nil {
				return err
			}
			_, rep, err := s.Solve(p.rhs, nil)
			s.Close()
			if err != nil {
				return err
			}
			tries++
			if rep.Executor == pick {
				agree++
			}
		}
	}
	m["tune.pred_ratio"] = predNs / execNs
	m["tune.regret"] = pickUs / bestUs
	m["tune.probe_pick_agree"] = float64(agree) / float64(tries)
	return nil
}

// inspect times Runtime.Inspect on a warm plan and after InvalidatePlans.
func (p *prober) inspect(l *sparse.Triangular, opts []doacross.Option, m metrics) error {
	rt, err := doacross.New(l.N, opts...)
	if err != nil {
		return err
	}
	defer rt.Close()
	loop, err := doacross.TrisolveLoop(l, p.rhs)
	if err != nil {
		return err
	}
	const batch = 100
	warm, err := timeCall(func() error {
		for i := 0; i < batch; i++ {
			if _, err := rt.Inspect(loop); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["core.warm_inspect_ns"] = warm * 1e3 / batch
	cold, err := timeCall(func() error {
		rt.InvalidatePlans()
		_, err := rt.Inspect(loop)
		return err
	})
	if err != nil {
		return err
	}
	m["core.cold_inspect_us"] = cold
	return nil
}

// multi times a full 64-column SolveMulti and reports it per column.
func (p *prober) multi(l *sparse.Triangular, opts []doacross.Option, seed int64, m metrics) error {
	s, err := doacross.NewSolver(l, opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	B := rhsPool(l.N, seed+4, doacross.MaxRHSBlock)
	var Y [][]float64
	t, err := timeCall(func() error { Y, _, err = s.SolveMulti(B, Y); return err })
	if err != nil {
		return err
	}
	for c := range B {
		p.verify("trisolve.multi", Y[c], l.Solve(B[c], nil))
	}
	m["trisolve.multi_us_per_rhs"] = t / float64(len(B))
	return nil
}

// sparseOps times the problem's SpMV and its ILU(0) factorization.
func (p *prober) sparseOps(a *sparse.CSR, m metrics) error {
	y := make([]float64, a.Rows)
	spmv, _ := timeCall(func() error { a.MulVec(p.rhs, y); return nil })
	m["sparse.spmv_us"] = spmv
	ilu, err := timeCall(func() error { _, _, err := sparse.ILU0(a); return err })
	if err != nil {
		return err
	}
	m["sparse.ilu0_ms"] = ilu / 1e3
	return nil
}

// schedSubmit times one pool Submit of a no-op shard per worker.
func (p *prober) schedSubmit(m metrics) error {
	pool := sched.NewPool(workers)
	defer pool.Close()
	const batch = 1000
	noop := func(int) {}
	t, _ := timeCall(func() error {
		for i := 0; i < batch; i++ {
			pool.Submit(workers, noop)
		}
		return nil
	})
	m["sched.submit_ns"] = t * 1e3 / batch
	return nil
}
