// Integration tests that exercise the full stack — problem generators,
// ILU(0), dependency analysis, doconsider reordering, the doacross runtime,
// the machine simulator and the experiment harness — together, through the
// public doacross facade, the way external programs use it.
package doacross_test

import (
	"context"
	"strings"
	"testing"

	"doacross"
	"doacross/internal/experiments"
	"doacross/internal/krylov"
	"doacross/internal/machine"
	"doacross/internal/sched"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
	"doacross/internal/testloop"
)

func solverOptions(workers int) []doacross.Option {
	return []doacross.Option{
		doacross.WithWorkers(workers),
		doacross.WithPolicy(doacross.Dynamic),
		doacross.WithChunk(32),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
	}
}

// TestIntegrationAllProblemsAllSolvers builds every Table 1 problem, factors
// it, and checks that every parallel triangular-solve executor reproduces the
// sequential substitution exactly.
func TestIntegrationAllProblemsAllSolvers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	for _, prob := range stencil.Problems {
		prob := prob
		t.Run(prob.String(), func(t *testing.T) {
			l, u, err := stencil.LowerFactor(prob, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Validate(); err != nil {
				t.Fatal(err)
			}
			rhs := stencil.RHS(l.N, 99)
			want := doacross.SolveSequential(l, rhs)
			for _, sv := range []struct {
				kind doacross.SolverKind
				exec doacross.ExecutorKind
			}{
				{doacross.SolverDoacross, doacross.Doacross},
				{doacross.SolverReordered, doacross.Doacross},
				{doacross.SolverLinear, doacross.Doacross},
				{doacross.SolverDoacross, doacross.Wavefront},
			} {
				got, _, err := doacross.SolveTriangular(sv.kind, l, rhs, append(solverOptions(4), doacross.WithExecutor(sv.exec))...)
				if err != nil {
					t.Fatalf("%v under %v: %v", sv.kind, sv.exec, err)
				}
				if d := sparse.VecMaxDiff(got, want); d > 1e-10 {
					t.Fatalf("%v under %v: differs from sequential by %v", sv.kind, sv.exec, d)
				}
			}
			// Backward substitution on the upper factor.
			wantU := u.Solve(rhs, nil)
			gotU, _, err := doacross.SolveTriangular(doacross.SolverDoacross, u, rhs, solverOptions(4)...)
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.VecMaxDiff(gotU, wantU); d > 1e-10 {
				t.Fatalf("upper doacross differs from sequential by %v", d)
			}
		})
	}
}

// TestIntegrationDependencyAnalysisConsistency cross-checks three independent
// views of the same dependency structure: the dependency graph, the executor
// counters and the machine simulator.
func TestIntegrationDependencyAnalysisConsistency(t *testing.T) {
	tc := testloop.Config{N: 3000, M: 5, L: 12}
	g := tc.Graph()
	loop := tc.Loop()

	// The executor must observe exactly as many true dependencies as the
	// dependency graph contains edges (the Figure 4 loop reads each
	// dependent element once per edge).
	rt, err := doacross.New(loop.Data,
		doacross.WithWorkers(4), doacross.WithWaitStrategy(doacross.WaitSpinYield))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	y := tc.InitialData()
	rep, err := rt.Run(context.Background(), loop, y)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrueDeps != int64(g.Edges) {
		t.Fatalf("executor saw %d true dependencies, dependency graph has %d edges", rep.TrueDeps, g.Edges)
	}

	// The simulator must agree with the graph on the amount of work (T_seq).
	cm := experiments.Figure6CostModel(tc.M)
	sim, err := machine.Simulate(g, machine.Config{Processors: 16, Policy: sched.Cyclic}, cm)
	if err != nil {
		t.Fatal(err)
	}
	wantTSeq := machine.SimulateSequential(tc.N, cm)
	if diff := sim.TSeq - wantTSeq; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("simulator T_seq %v != %v", sim.TSeq, wantTSeq)
	}
}

// TestIntegrationReorderingConsistency checks that the two implementations of
// the doconsider transformation — reordering the execution schedule and
// renumbering the matrix — agree with each other and with the sequential
// solve on a paper problem.
func TestIntegrationReorderingConsistency(t *testing.T) {
	l, _, err := stencil.LowerFactor(stencil.NinePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 17)
	want := doacross.SolveSequential(l, rhs)
	scheduled, _, err := doacross.SolveTriangular(doacross.SolverReordered, l, rhs, solverOptions(4)...)
	if err != nil {
		t.Fatal(err)
	}
	renumbered, _, err := doacross.SolveRenumbered(l, rhs, doacross.ReorderLevel, solverOptions(4)...)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(scheduled, want); d > 1e-10 {
		t.Fatalf("schedule-reordered solve differs by %v", d)
	}
	if d := sparse.VecMaxDiff(renumbered, want); d > 1e-10 {
		t.Fatalf("renumbered solve differs by %v", d)
	}
}

// TestIntegrationKrylovEndToEnd runs the motivating application end to end on
// a nonsymmetric operator: ILU(0)-preconditioned BiCGSTAB with both
// triangular substitutions executed by the preprocessed doacross.
func TestIntegrationKrylovEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	a, err := stencil.BlockSevenPoint(5, 4, 3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = 1 + 0.25*float64(i%7)
	}
	b := a.MulVec(xTrue, nil)
	x, res, err := krylov.SolveNonsymmetricWithILU(a, b, func(p *sparse.ILUPreconditioner) {
		// Both substitutions run on two persistent doacross runtimes reused
		// across every BiCGSTAB iteration (two Applies per iteration).
		release, e := doacross.UseDoacrossILU(p, solverOptions(4)...)
		if e != nil {
			t.Fatal(e)
		}
		t.Cleanup(release)
	}, krylov.Options{Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("BiCGSTAB with doacross preconditioning did not converge: %v", res)
	}
	if d := sparse.VecMaxDiff(x, xTrue); d > 1e-5 {
		t.Fatalf("solution error %v", d)
	}
}

// TestIntegrationPaperShapeChecks runs the reduced-size experiment harness
// end to end and asserts every qualitative claim of the paper holds, which is
// the same gate `doabench -check` applies to the full-size runs.
func TestIntegrationPaperShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	figCfg := experiments.DefaultFigure6Config()
	figCfg.N = 3000
	fig, err := experiments.RunFigure6(figCfg)
	if err != nil {
		t.Fatal(err)
	}
	if problems := fig.CheckShape(); len(problems) > 0 {
		t.Errorf("Figure 6 shape violations:\n%s", strings.Join(problems, "\n"))
	}
	tabCfg := experiments.DefaultTable1Config()
	tabCfg.Problems = []stencil.Problem{stencil.SPE2, stencil.FivePoint, stencil.SevenPoint}
	tab, err := experiments.RunTable1(tabCfg)
	if err != nil {
		t.Fatal(err)
	}
	if problems := tab.CheckShape(); len(problems) > 0 {
		t.Errorf("Table 1 shape violations:\n%s", strings.Join(problems, "\n"))
	}
	if err := tab.AsTable().Validate(); err != nil {
		t.Error(err)
	}
}
