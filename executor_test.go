// Integration tests of the pluggable executor layer through the public
// facade: pre-scheduled wavefront execution on the paper's triangular
// systems, the schedule cache across repeated solves, and automatic
// executor selection.
package doacross_test

import (
	"context"
	"testing"

	"doacross"
	"doacross/internal/stencil"
)

// TestWavefrontSolvesPaperSystems is the acceptance property: the wavefront
// executor solves every Table 1 triangular system (forward and backward
// substitution) with results bitwise identical to the sequential solve.
func TestWavefrontSolvesPaperSystems(t *testing.T) {
	for _, prob := range stencil.Problems {
		l, u, err := stencil.LowerFactor(prob, 1)
		if err != nil {
			t.Fatal(err)
		}
		rhs := stencil.RHS(l.N, 7)
		opts := []doacross.Option{
			doacross.WithWorkers(4),
			doacross.WithExecutor(doacross.Wavefront),
		}
		for _, tri := range []*doacross.Triangular{l, u} {
			want := doacross.SolveSequential(tri, rhs)
			got, rep, err := doacross.SolveTriangular(doacross.SolverDoacross, tri, rhs, opts...)
			if err != nil {
				t.Fatalf("%v lower=%v: %v", prob, tri.Lower, err)
			}
			if rep.Executor != "wavefront" {
				t.Fatalf("%v: report executor %q, want wavefront", prob, rep.Executor)
			}
			if rep.Levels == 0 {
				t.Fatalf("%v: wavefront run reports zero levels", prob)
			}
			if rep.WaitPolls != 0 {
				t.Fatalf("%v: wavefront run busy-waited (%d polls)", prob, rep.WaitPolls)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%v lower=%v: element %d differs: %v vs %v", prob, tri.Lower, i, want[i], got[i])
				}
			}
		}
	}
}

// TestScheduleCacheAcrossSolves checks the repeated-solve premise: on one
// reusable Solver the first wavefront solve inspects cold, every later solve
// hits the schedule cache, and the cached solves still produce bitwise
// sequential results.
func TestScheduleCacheAcrossSolves(t *testing.T) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := doacross.NewSolver(l,
		doacross.WithWorkers(4),
		doacross.WithExecutor(doacross.Wavefront),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer solver.Close()

	for rep := 0; rep < 5; rep++ {
		rhs := stencil.RHS(l.N, int64(rep))
		want := doacross.SolveSequential(l, rhs)
		got, r, err := solver.Solve(rhs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantCached := rep > 0; r.InspectCached != wantCached {
			t.Fatalf("solve %d: InspectCached=%v, want %v", rep, r.InspectCached, wantCached)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("solve %d: element %d differs", rep, i)
			}
		}
	}
}

// TestAutoExecutorThroughFacade checks WithExecutor(Auto) end to end: with
// cost coefficients where barriers are cheap relative to the flag protocol
// (and chunk claims priced out of the comparison, isolating the
// doacross/wavefront pick), the cost model pre-schedules the five-point
// factor (its natural order is
// riddled with distance-1 stalls), the report names the picked strategy and
// the prediction behind it, and the result matches the sequential solve.
func TestAutoExecutorThroughFacade(t *testing.T) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 7)
	want := doacross.SolveSequential(l, rhs)
	got, rep, err := doacross.SolveTriangular(doacross.SolverDoacross, l, rhs,
		doacross.WithWorkers(4),
		doacross.WithExecutor(doacross.Auto),
		doacross.WithAutoCosts(doacross.AutoCosts{BarrierNs: 100, FlagCheckNs: 10, ClaimNs: 1e6}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executor != "wavefront" {
		t.Fatalf("auto picked %q for the five-point factor, want wavefront", rep.Executor)
	}
	if rep.AutoCosts.BarrierNs != 100 || rep.AutoCosts.FlagCheckNs != 10 {
		t.Fatalf("report did not carry the configured auto costs: %+v", rep.AutoCosts)
	}
	if !(rep.PredictedWavefrontNs > 0 && rep.PredictedWavefrontNs < rep.PredictedDoacrossNs) {
		t.Fatalf("predictions inconsistent with the pick: doacross=%.0f wavefront=%.0f",
			rep.PredictedDoacrossNs, rep.PredictedWavefrontNs)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("element %d differs", i)
		}
	}
}

// TestAutoSelfCalibrates checks the probe path: without WithAutoCosts the
// runtime measures its own barrier and flag-check costs on the live pool.
// Which executor wins is host-dependent (that is the point of calibrating),
// so the test asserts only that a decision was made from positive
// coefficients, the predictions are consistent with the pick, and the run
// is correct.
func TestAutoSelfCalibrates(t *testing.T) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 7)
	want := doacross.SolveSequential(l, rhs)
	got, rep, err := doacross.SolveTriangular(doacross.SolverDoacross, l, rhs,
		doacross.WithWorkers(4),
		doacross.WithExecutor(doacross.Auto),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AutoCosts.BarrierNs <= 0 || rep.AutoCosts.FlagCheckNs <= 0 {
		t.Fatalf("self-calibration produced unusable coefficients: %+v", rep.AutoCosts)
	}
	wantExec := "doacross"
	if rep.PredictedWavefrontNs < rep.PredictedDoacrossNs {
		wantExec = "wavefront"
	}
	if rep.Executor != wantExec {
		t.Fatalf("executor %q inconsistent with predictions (doacross=%.0f wavefront=%.0f)",
			rep.Executor, rep.PredictedDoacrossNs, rep.PredictedWavefrontNs)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("element %d differs", i)
		}
	}
}

// TestAutoFlipsAtBreakEven is the cost-model acceptance property: for a
// fixed loop shape, sweeping the calibrated barrier/flag-check cost ratio
// across the model's break-even point flips the Auto selection from
// wavefront (cheap barriers) to doacross (expensive barriers), with the
// flip exactly where Predict says the two estimates cross. Chunk claims are
// priced out of the comparison (claimNs), isolating the two-way flip.
func TestAutoFlipsAtBreakEven(t *testing.T) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 7)
	const workers = 4
	const flagNs, claimNs = 10.0, 1e6

	// Locate the break-even ratio from the model itself, using the stats the
	// runtime's own inspection reports.
	rt, err := doacross.New(l.N, doacross.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	loop, err := doacross.TrisolveLoop(l, rhs)
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	st, err := rt.Inspect(loop)
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels <= 1 {
		t.Fatalf("degenerate decomposition: %+v", st)
	}
	lo, hi := 1e-3, 1e6
	for range 200 {
		mid := (lo + hi) / 2
		times := doacross.AutoCosts{BarrierNs: mid * flagNs, FlagCheckNs: flagNs, ClaimNs: claimNs}.PredictN(st, workers, 1)
		if times[doacross.Wavefront] < times[doacross.Doacross] {
			lo = mid
		} else {
			hi = mid
		}
	}
	breakEven := (lo + hi) / 2
	if breakEven <= 1e-3 || breakEven >= 1e6 {
		t.Fatalf("no break-even ratio found in range (%.4g)", breakEven)
	}

	solveWithRatio := func(ratio float64) doacross.Report {
		t.Helper()
		_, rep, err := doacross.SolveTriangular(doacross.SolverDoacross, l, rhs,
			doacross.WithWorkers(workers),
			doacross.WithExecutor(doacross.Auto),
			doacross.WithAutoCosts(doacross.AutoCosts{BarrierNs: ratio * flagNs, FlagCheckNs: flagNs, ClaimNs: claimNs}),
		)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := solveWithRatio(breakEven / 2); rep.Executor != "wavefront" {
		t.Fatalf("below break-even (ratio %.1f): picked %q, want wavefront", breakEven/2, rep.Executor)
	}
	if rep := solveWithRatio(breakEven * 2); rep.Executor != "doacross" {
		t.Fatalf("above break-even (ratio %.1f): picked %q, want doacross", breakEven*2, rep.Executor)
	}
}

// TestDynamicWavefrontSolvesPaperSystems extends the acceptance property to
// the dynamic within-level executor: it solves every Table 1 triangular
// system (forward and backward substitution) with results bitwise identical
// to the sequential solve, never busy-waits, and reports its own name.
func TestDynamicWavefrontSolvesPaperSystems(t *testing.T) {
	for _, prob := range stencil.Problems {
		l, u, err := stencil.LowerFactor(prob, 1)
		if err != nil {
			t.Fatal(err)
		}
		rhs := stencil.RHS(l.N, 7)
		for _, tri := range []*doacross.Triangular{l, u} {
			want := doacross.SolveSequential(tri, rhs)
			got, rep, err := doacross.SolveTriangular(doacross.SolverDoacross, tri, rhs,
				doacross.WithWorkers(4), doacross.WithExecutor(doacross.WavefrontDynamic))
			if err != nil {
				t.Fatalf("%v lower=%v: %v", prob, tri.Lower, err)
			}
			if rep.Executor != "wavefront-dynamic" {
				t.Fatalf("%v: report executor %q, want wavefront-dynamic", prob, rep.Executor)
			}
			if rep.Levels == 0 {
				t.Fatalf("%v: dynamic wavefront run reports zero levels", prob)
			}
			if rep.WaitPolls != 0 {
				t.Fatalf("%v: dynamic wavefront run busy-waited (%d polls)", prob, rep.WaitPolls)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%v lower=%v: element %d differs: %v vs %v", prob, tri.Lower, i, want[i], got[i])
				}
			}
		}
	}
}

// skewedLevelLoop builds a loop whose dependency graph is a fat chain of
// depth levels of the given width, with a heavy-tailed twist: every
// iteration reads one element of the previous level, and the FIRST iteration
// of each level (the hot one) reads hotReads of them. Under a static block
// schedule the hot iteration's worker also receives its share of cheap
// members, so each level's read imbalance is what the dynamic within-level
// executor reclaims. Returns the loop and a data array sized for it.
func skewedLevelLoop(width, depth, hotReads int) (*doacross.Loop, []float64, error) {
	n := width * depth
	reads := make([][]int, n)
	for l := 1; l < depth; l++ {
		base, prev := l*width, (l-1)*width
		for k := 0; k < width; k++ {
			i := base + k
			reads[i] = []int{prev + k}
			if k == 0 {
				for h := 1; h <= hotReads && h < width; h++ {
					reads[i] = append(reads[i], prev+h)
				}
			}
		}
	}
	loop, err := doacross.NewLoop(n, n).
		Writes(func(i int) []int { return []int{i} }).
		Reads(func(i int) []int { return reads[i] }).
		Body(func(i int, v *doacross.Values) {
			s := float64(i%7) + 1
			for k, e := range reads[i] {
				s += float64(k+1) * v.Load(e)
			}
			v.Store(i, s)
		}).
		Build()
	if err != nil {
		return nil, nil, err
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = float64((i*31)%17) * 0.25
	}
	return loop, y, nil
}

// TestAutoFlipsToDynamicAtBreakEven is the acceptance property of the
// three-way cost model, mirroring TestAutoFlipsAtBreakEven one strategy up:
// on a skewed-cost loop (one hot iteration per level) with cheap barriers,
// sweeping the claim cost across the model's own static/dynamic break-even
// flips the Auto selection from wavefront-dynamic (cheap claims reclaim the
// imbalance) to the static wavefront (claims outweigh it), with results
// bitwise sequential on both sides.
func TestAutoFlipsToDynamicAtBreakEven(t *testing.T) {
	const (
		workers   = 4
		flagNs    = 10.0
		barrierNs = 20.0
	)
	loop, y0, err := skewedLevelLoop(64, 8, 48)
	if err != nil {
		t.Fatal(err)
	}
	seq := append([]float64(nil), y0...)
	if err := doacross.RunSequential(loop, seq); err != nil {
		t.Fatal(err)
	}

	rt, err := doacross.New(loop.Data, doacross.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.Inspect(loop)
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels <= 1 || st.ReadImbalance <= 0 || st.DynamicClaims <= 0 {
		t.Fatalf("degenerate skewed decomposition: %+v", st)
	}

	// Locate the static/dynamic break-even claim cost from the model itself,
	// and confirm the barriers are cheap enough that the flip happens inside
	// the wavefront family (the doacross never wins here).
	predict := func(claimNs float64) (tda, twf, tdyn float64) {
		t := doacross.AutoCosts{BarrierNs: barrierNs, FlagCheckNs: flagNs, ClaimNs: claimNs}.PredictN(st, workers, 1)
		return t[doacross.Doacross], t[doacross.Wavefront], t[doacross.WavefrontDynamic]
	}
	lo, hi := 1e-4, 1e6
	for range 200 {
		mid := (lo + hi) / 2
		_, twf, tdyn := predict(mid)
		if tdyn < twf {
			lo = mid
		} else {
			hi = mid
		}
	}
	breakEven := (lo + hi) / 2
	if breakEven <= 1e-4 || breakEven >= 1e6 {
		t.Fatalf("no static/dynamic break-even claim cost found (%.4g)", breakEven)
	}
	if tda, twf, _ := predict(breakEven); twf >= tda {
		t.Fatalf("barriers not cheap enough: static wavefront (%.0f) loses to doacross (%.0f) at the break-even", twf, tda)
	}

	solveWithClaim := func(claimNs float64) string {
		t.Helper()
		rt, err := doacross.New(loop.Data,
			doacross.WithWorkers(workers),
			doacross.WithExecutor(doacross.Auto),
			doacross.WithAutoCosts(doacross.AutoCosts{BarrierNs: barrierNs, FlagCheckNs: flagNs, ClaimNs: claimNs}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		y := append([]float64(nil), y0...)
		rep, err := rt.Run(context.Background(), loop, y)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if seq[i] != y[i] {
				t.Fatalf("claim %.3f: element %d differs from sequential", claimNs, i)
			}
		}
		if rep.PredictedDynamicNs <= 0 {
			t.Fatalf("claim %.3f: report carries no dynamic prediction: %+v", claimNs, rep)
		}
		return rep.Executor
	}
	if got := solveWithClaim(breakEven / 2); got != "wavefront-dynamic" {
		t.Fatalf("below break-even (claim %.2f): picked %q, want wavefront-dynamic", breakEven/2, got)
	}
	if got := solveWithClaim(breakEven * 2); got != "wavefront" {
		t.Fatalf("above break-even (claim %.2f): picked %q, want wavefront", breakEven*2, got)
	}
}

// TestWithExecutorValidation pins the option's error paths.
func TestWithExecutorValidation(t *testing.T) {
	if _, err := doacross.New(8, doacross.WithExecutor(doacross.ExecutorKind(42))); err == nil {
		t.Fatal("invalid executor kind accepted")
	}

	// Wavefront × WithOrder is a construction-time error, in either option
	// order, and a reordered solver rejects the wavefront executor up front.
	order := []int{1, 0, 2, 3, 4, 5, 6, 7}
	if _, err := doacross.New(8, doacross.WithOrder(order), doacross.WithExecutor(doacross.Wavefront)); err == nil {
		t.Fatal("WithOrder + Wavefront accepted")
	}
	if _, err := doacross.New(8, doacross.WithExecutor(doacross.Wavefront), doacross.WithOrder(order)); err == nil {
		t.Fatal("Wavefront + WithOrder accepted")
	}
	if _, err := doacross.New(8, doacross.WithOrder(order), doacross.WithExecutor(doacross.WavefrontDynamic)); err == nil {
		t.Fatal("WithOrder + WavefrontDynamic accepted")
	}
	lf, _, err := stencil.LowerFactor(stencil.SPE2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doacross.NewReorderedSolver(lf, doacross.ReorderLevel, doacross.WithExecutor(doacross.Wavefront)); err == nil {
		t.Fatal("reordered solver accepted the wavefront executor")
	}
	if _, err := doacross.NewReorderedSolver(lf, doacross.ReorderLevel, doacross.WithExecutor(doacross.WavefrontDynamic)); err == nil {
		t.Fatal("reordered solver accepted the dynamic wavefront executor")
	}

	// Wavefront without Reads fails at run time with a descriptive error.
	rt, err := doacross.New(8, doacross.WithExecutor(doacross.Wavefront))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	loop, err := doacross.NewLoop(8, 8).
		Writes(func(i int) []int { return []int{i} }).
		Body(func(i int, v *doacross.Values) { v.Store(i, 1) }).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 8)
	if _, err := rt.Run(context.Background(), loop, y); err == nil {
		t.Fatal("wavefront run without Reads accepted")
	}
}

// TestInspectReturnsStats checks the facade's Inspect surface: level count,
// width and critical path of a known decomposition, plus the cache-hit flag
// on re-inspection.
func TestInspectReturnsStats(t *testing.T) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 7)
	g := doacross.TrisolveGraph(l)
	wantLevels := len(g.ParallelismProfile())

	rt, err := doacross.New(l.N, doacross.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	solverLoop, err := doacross.NewLoop(l.N, l.N).
		Writes(func(i int) []int { return []int{i} }).
		Reads(func(i int) []int { return l.Col[l.RowPtr[i]:l.RowPtr[i+1]] }).
		Body(func(i int, v *doacross.Values) {
			s := rhs[i]
			for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
				s -= l.Val[k] * v.Load(l.Col[k])
			}
			v.Store(i, s/l.Diag[i])
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}

	st, err := rt.Inspect(solverLoop)
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels != wantLevels {
		t.Fatalf("Inspect levels = %d, want %d", st.Levels, wantLevels)
	}
	if st.CriticalPathLen != wantLevels {
		t.Fatalf("Inspect critical path = %d, want %d", st.CriticalPathLen, wantLevels)
	}
	if st.Iterations != l.N || st.MaxLevelWidth < 1 || st.MeanLevelWidth <= 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.CacheHit {
		t.Fatal("first inspection reported a cache hit")
	}
	if st2, err := rt.Inspect(solverLoop); err != nil || !st2.CacheHit {
		t.Fatalf("second inspection missed the cache (err=%v)", err)
	}
}
