// Tests for the triangular-solve layer of the facade: every SolverKind on
// both orientations, and the report a blocked SolveMulti hands back.
package doacross_test

import (
	"context"
	"math/rand"
	"testing"

	"doacross"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
)

// randomTriangular builds a random well-conditioned lower or upper triangular
// matrix: one triangle of a sparse matrix with a dominant diagonal.
func randomTriangular(t *testing.T, rng *rand.Rand, n, rowNNZ int, lower bool) *doacross.Triangular {
	t.Helper()
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2 + rng.Float64()})
		for k := 0; k < rowNNZ; k++ {
			ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(n), Val: rng.NormFloat64() * 0.3})
		}
	}
	a, err := sparse.FromTriplets(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	if lower {
		return sparse.LowerTriangle(a)
	}
	return sparse.UpperTriangle(a)
}

// TestSolveTriangularEveryKindBothOrientations runs every SolverKind, and
// SolverDoacross under every ExecutorKind, through SolveTriangular on lower
// and upper factors, random and SPE2 ILU(0). Every solve runs the same row
// arithmetic in the same order, only scheduled differently, so each result
// must equal the sequential substitution bit for bit. SolveRenumbered
// renumbers forward substitutions only and must reject the upper factors.
func TestSolveTriangularEveryKindBothOrientations(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	spe2L, spe2U, err := stencil.LowerFactor(stencil.SPE2, 1)
	if err != nil {
		t.Fatal(err)
	}
	factors := []struct {
		name string
		tri  *doacross.Triangular
	}{
		{"random lower", randomTriangular(t, rng, 300, 3, true)},
		{"random upper", randomTriangular(t, rng, 300, 3, false)},
		{"SPE2 L", spe2L},
		{"SPE2 U", spe2U},
	}
	for _, f := range factors {
		rhs := stencil.RHS(f.tri.N, 17)
		want := doacross.SolveSequential(f.tri, rhs)
		solve := func(name string, kind doacross.SolverKind, exec doacross.ExecutorKind) {
			got, _, err := doacross.SolveTriangular(kind, f.tri, rhs, append(solverOptions(4), doacross.WithExecutor(exec))...)
			if err != nil {
				t.Fatalf("%s, %s: %v", f.name, name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %s: y[%d] = %v, sequential %v", f.name, name, i, got[i], want[i])
				}
			}
		}
		kinds := 0
		for kind := doacross.SolverSequential; kind.String() != "unknown"; kind++ {
			kinds++
			solve(kind.String(), kind, doacross.Doacross)
		}
		if kinds != 4 {
			t.Errorf("%d solver kinds, want 4", kinds)
		}
		for exec := doacross.Doacross; exec <= doacross.Auto; exec++ {
			solve("doacross under "+exec.String(), doacross.SolverDoacross, exec)
		}
		_, _, err := doacross.SolveRenumbered(f.tri, rhs, doacross.ReorderLevel, solverOptions(4)...)
		if f.tri.Lower && err != nil {
			t.Errorf("%s: SolveRenumbered: %v", f.name, err)
		}
		if !f.tri.Lower && err == nil {
			t.Errorf("%s: SolveRenumbered accepted an upper factor", f.name)
		}
	}
}

// TestSolveMultiReportMatchesRunMulti checks that SolveMulti hands back the
// runtime's own RunMulti report. With pinned costs, an Auto SolveMulti on
// 5-PT reports the executor and predicted times of Runtime.RunMulti on the
// same loop and columns. Under WithOnlineTuning it also reports the tuner's
// coefficients, and the same executor; its predicted times are re-stamped
// from measured feedback, so they differ between two runtimes.
func TestSolveMultiReportMatchesRunMulti(t *testing.T) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	B := make([][]float64, 8)
	for c := range B {
		B[c] = stencil.RHS(l.N, int64(c))
	}
	costs := doacross.AutoCosts{BarrierNs: 2000, FlagCheckNs: 30, ClaimNs: 60, IterNs: 50}
	cases := []struct {
		name  string
		opt   doacross.Option
		tuned bool
	}{
		{"pinned", doacross.WithAutoCosts(costs), false},
		{"tuned", doacross.WithOnlineTuning(doacross.TuningOptions{InitialCosts: costs, Epsilon: -1}), true},
	}
	for _, tc := range cases {
		opts := []doacross.Option{
			doacross.WithWorkers(2),
			doacross.WithWaitStrategy(doacross.WaitSpinYield),
			doacross.WithExecutor(doacross.Auto),
			tc.opt,
		}
		s, err := doacross.NewSolver(l, opts...)
		if err != nil {
			t.Fatal(err)
		}
		Y, got, err := s.SolveMulti(B, nil)
		s.Close()
		if err != nil {
			t.Fatalf("%s: SolveMulti: %v", tc.name, err)
		}

		rt, err := doacross.New(l.N, opts...)
		if err != nil {
			t.Fatal(err)
		}
		loop, err := doacross.TrisolveLoop(l, make([]float64, l.N))
		if err != nil {
			t.Fatal(err)
		}
		ys := make([][]float64, len(B))
		for c := range B {
			ys[c] = append([]float64(nil), B[c]...)
		}
		want, err := rt.RunMulti(context.Background(), loop, ys)
		rt.Close()
		if err != nil {
			t.Fatalf("%s: RunMulti: %v", tc.name, err)
		}
		for c := range ys {
			for i := range ys[c] {
				if Y[c][i] != ys[c][i] {
					t.Fatalf("%s: column %d row %d: SolveMulti %v, RunMulti %v", tc.name, c, i, Y[c][i], ys[c][i])
				}
			}
		}

		if got.Executor != want.Executor || got.NRHS != want.NRHS {
			t.Errorf("%s: SolveMulti ran %s on %d columns, RunMulti %s on %d", tc.name, got.Executor, got.NRHS, want.Executor, want.NRHS)
		}
		if tc.tuned {
			if got.TunedCosts == (doacross.AutoCosts{}) {
				t.Errorf("tuned: SolveMulti reported zero TunedCosts")
			}
			continue
		}
		if got.PredictedDoacrossNs != want.PredictedDoacrossNs ||
			got.PredictedWavefrontNs != want.PredictedWavefrontNs ||
			got.PredictedDynamicNs != want.PredictedDynamicNs {
			t.Errorf("pinned: SolveMulti predicted %v/%v/%v ns, RunMulti %v/%v/%v",
				got.PredictedDoacrossNs, got.PredictedWavefrontNs, got.PredictedDynamicNs,
				want.PredictedDoacrossNs, want.PredictedWavefrontNs, want.PredictedDynamicNs)
		}
	}
}

// TestWarmSolveAllocations pins what a warm solve allocates once its plan is
// cached and its buffers are reused, on SPE2's lower factor under every fixed
// executor at 1 and 2 workers: at most 8 allocations for Solve and 12 for a
// 3-column SolveMulti. They are the per-run closures, barriers and report the
// executors build (see core.Runtime); a per-run column wrapper or report copy
// escaping to the heap would raise them.
func TestWarmSolveAllocations(t *testing.T) {
	const maxSolve, maxMulti = 8, 12
	l, _, err := stencil.LowerFactor(stencil.SPE2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 7)
	B := [][]float64{stencil.RHS(l.N, 1), stencil.RHS(l.N, 2), stencil.RHS(l.N, 3)}
	for _, kind := range []doacross.ExecutorKind{doacross.Doacross, doacross.Wavefront, doacross.WavefrontDynamic} {
		for _, workers := range []int{1, 2} {
			s, err := doacross.NewSolver(l, doacross.WithWorkers(workers), doacross.WithExecutor(kind))
			if err != nil {
				t.Fatal(err)
			}
			y := make([]float64, l.N)
			Y := make([][]float64, len(B))
			for c := range Y {
				Y[c] = make([]float64, l.N)
			}
			solve := func() {
				if _, _, err := s.Solve(rhs, y); err != nil {
					t.Fatal(err)
				}
			}
			multi := func() {
				if _, _, err := s.SolveMulti(B, Y); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up both paths: the plan, the schedule and the block buffers.
			solve()
			multi()
			if got := testing.AllocsPerRun(50, solve); got > maxSolve {
				t.Errorf("%v at %d workers: warm Solve made %v allocations, want at most %d", kind, workers, got, maxSolve)
			}
			if got := testing.AllocsPerRun(50, multi); got > maxMulti {
				t.Errorf("%v at %d workers: warm 3-column SolveMulti made %v allocations, want at most %d", kind, workers, got, maxMulti)
			}
			s.Close()
		}
	}
}
