package trisolve

import (
	"math/rand"
	"testing"

	"doacross/internal/core"
	"doacross/internal/doconsider"
	"doacross/internal/flags"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
)

// randomLower builds a random well-conditioned lower triangular matrix.
func randomLower(rng *rand.Rand, n, rowNNZ int, unit bool) *sparse.Triangular {
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2 + rng.Float64()})
		for k := 0; k < rowNNZ && i > 0; k++ {
			ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(i), Val: rng.NormFloat64() * 0.3})
		}
	}
	a, _ := sparse.FromTriplets(n, n, ts)
	l := sparse.LowerTriangle(a)
	if unit {
		l.UnitDiag = true
		for i := range l.Diag {
			l.Diag[i] = 1
		}
	}
	return l
}

func opts(workers int) core.Options {
	return core.Options{Workers: workers, WaitStrategy: flags.WaitSpinYield}
}

func TestLoopRejectsBadInput(t *testing.T) {
	for _, lower := range []bool{true, false} {
		tr := &sparse.Triangular{N: 3, Lower: lower, RowPtr: []int{0, 0, 0, 0}, Diag: []float64{1, 1, 1}}
		if _, err := Loop(tr, []float64{1}); err == nil {
			t.Errorf("lower=%v: short rhs accepted", lower)
		}
	}
}

func TestDoacrossSolveMatchesSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		tr := randomLower(rng, 300, 3, trial%2 == 0)
		rhs := stencil.RHS(tr.N, int64(trial))
		want := SolveSequential(tr, rhs)
		for _, workers := range []int{1, 2, 4, 8} {
			got, rep, err := Solve(Doacross, tr, rhs, opts(workers))
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.VecMaxDiff(got, want); d > 1e-12 {
				t.Fatalf("trial %d workers %d: doacross differs by %v", trial, workers, d)
			}
			if rep.Iterations != tr.N {
				t.Error("report iteration count wrong")
			}
		}
	}
}

func TestReorderedSolveMatchesSequential(t *testing.T) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink to a quicker instance by using the 5-PT structure directly.
	rhs := stencil.RHS(l.N, 7)
	want := SolveSequential(l, rhs)
	for _, strategy := range []doconsider.Strategy{doconsider.Level, doconsider.LevelInterleaved, doconsider.CriticalPath} {
		s, err := NewReorderedSolver(l, strategy, opts(4))
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := s.Solve(rhs, nil)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.VecMaxDiff(got, want); d > 1e-10 {
			t.Fatalf("strategy %v: reordered solve differs by %v", strategy, d)
		}
		if rep.Order != "reordered" {
			t.Errorf("strategy %v: report order %q", strategy, rep.Order)
		}
	}
}

func TestLinearSolveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := randomLower(rng, 400, 4, false)
	rhs := stencil.RHS(tr.N, 2)
	want := SolveSequential(tr, rhs)
	got, rep, err := SolveLinear(tr, rhs, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(got, want); d > 1e-12 {
		t.Fatalf("linear-subscript solve differs by %v", d)
	}
	if rep.PreTime != 0 {
		t.Error("linear-subscript solve should have no inspector phase")
	}
}

func TestGraphStructureMatchesMatrix(t *testing.T) {
	// The dependency graph of the solve must contain exactly one predecessor
	// per off-diagonal nonzero (after dedup).
	rng := rand.New(rand.NewSource(33))
	tr := randomLower(rng, 100, 2, false)
	g := Graph(tr)
	if g.N != tr.N {
		t.Fatal("graph size mismatch")
	}
	for i := 0; i < tr.N; i++ {
		want := map[int]bool{}
		for k := tr.RowPtr[i]; k < tr.RowPtr[i+1]; k++ {
			want[tr.Col[k]] = true
		}
		if len(g.Preds[i]) != len(want) {
			t.Fatalf("row %d: %d preds, want %d", i, len(g.Preds[i]), len(want))
		}
		for _, p := range g.Preds[i] {
			if !want[int(p)] {
				t.Fatalf("row %d: unexpected predecessor %d", i, p)
			}
		}
	}
}

func TestSubscript(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	if s := Subscript(randomLower(rng, 10, 2, false)); s.C != 1 || s.D != 0 {
		t.Errorf("lower Subscript = %+v, want identity", s)
	}
	if s := Subscript(randomUpper(rng, 10, 2)); s.C != -1 || s.D != 9 {
		t.Errorf("upper Subscript = %+v, want a(k) = 9-k", s)
	}
}

func TestSolveDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomLower(rng, 200, 2, true)
	rhs := stencil.RHS(tr.N, 11)
	want := SolveSequential(tr, rhs)
	for _, kind := range []SolverKind{Sequential, Doacross, DoacrossReordered, LinearSubscript} {
		got, _, err := Solve(kind, tr, rhs, opts(4))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if d := sparse.VecMaxDiff(got, want); d > 1e-12 {
			t.Fatalf("%v: differs by %v", kind, d)
		}
		if kind.String() == "unknown" {
			t.Errorf("%v has no name", kind)
		}
	}
	if _, _, err := Solve(SolverKind(99), tr, rhs, opts(1)); err == nil {
		t.Error("unknown solver kind accepted")
	}
	if SolverKind(99).String() != "unknown" {
		t.Error("unknown kind should stringify to unknown")
	}
}

// randomUpper builds a random well-conditioned upper triangular matrix.
func randomUpper(rng *rand.Rand, n, rowNNZ int) *sparse.Triangular {
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2 + rng.Float64()})
		for k := 0; k < rowNNZ && i < n-1; k++ {
			ts = append(ts, sparse.Triplet{Row: i, Col: i + 1 + rng.Intn(n-1-i), Val: rng.NormFloat64() * 0.3})
		}
	}
	a, _ := sparse.FromTriplets(n, n, ts)
	return sparse.UpperTriangle(a)
}

func TestUpperDoacrossSolveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 3; trial++ {
		tr := randomUpper(rng, 300, 3)
		rhs := stencil.RHS(tr.N, int64(trial))
		want := tr.Solve(rhs, nil)
		got, rep, err := Solve(Doacross, tr, rhs, opts(4))
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.VecMaxDiff(got, want); d > 1e-12 {
			t.Fatalf("trial %d: backward doacross differs by %v", trial, d)
		}
		if rep.Iterations != tr.N {
			t.Error("report iteration count wrong")
		}
	}
}

func TestUpperDoacrossReorderedMatchesSequential(t *testing.T) {
	_, u, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(u.N, 3)
	want := u.Solve(rhs, nil)
	got, rep, err := Solve(DoacrossReordered, u, rhs, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(got, want); d > 1e-10 {
		t.Fatalf("reordered backward doacross differs by %v", d)
	}
	if rep.Order != "reordered" {
		t.Errorf("report order %q", rep.Order)
	}
}

func TestUpperGraphStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tr := randomUpper(rng, 80, 2)
	g := Graph(tr)
	if g.N != tr.N {
		t.Fatal("graph size mismatch")
	}
	// Every edge must point from a lower doacross index (later row) to a
	// higher doacross index (earlier row): predecessors of iteration k solve
	// rows with larger row numbers.
	n := tr.N
	for k := 0; k < n; k++ {
		i := n - 1 - k
		for _, p := range g.Preds[k] {
			rowOfPred := n - 1 - int(p)
			if rowOfPred <= i {
				t.Fatalf("iteration %d (row %d) depends on row %d, which backward substitution computes later", k, i, rowOfPred)
			}
		}
	}
}

func TestRenumberedSolveMatchesSequential(t *testing.T) {
	// Renumbering the unknowns with the doconsider ordering and executing in
	// natural order must give exactly the same answer as reordering the
	// execution of the original numbering.
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 5)
	want := SolveSequential(l, rhs)
	renumbered, rep, err := SolveRenumbered(l, rhs, doconsider.Level, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(renumbered, want); d > 1e-10 {
		t.Fatalf("renumbered solve differs by %v", d)
	}
	if rep.Order != "renumbered" {
		t.Errorf("report order %q", rep.Order)
	}
	reordered, _, err := Solve(DoacrossReordered, l, rhs, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(renumbered, reordered); d > 1e-10 {
		t.Fatalf("renumbered and schedule-reordered solves differ by %v", d)
	}
}

func TestILUFactorSolveOnPaperProblem(t *testing.T) {
	// End-to-end: build the 5-PT operator, factor it, and solve L*y = rhs
	// with every parallel executor, verifying against the residual.
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 13)
	want := SolveSequential(l, rhs)
	back := l.MulVec(want, nil)
	if sparse.VecMaxDiff(back, rhs) > 1e-9 {
		t.Fatal("sequential solve residual too large")
	}
	got, _, err := Solve(Doacross, l, rhs, opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(got, want); d > 1e-10 {
		t.Fatalf("doacross solve on 5-PT factor differs by %v", d)
	}
}

func TestSolverReuseAcrossRightHandSides(t *testing.T) {
	// One reusable Solver must reproduce the sequential substitution for a
	// stream of right-hand sides — the access pattern of a Krylov
	// preconditioner, and the reuse the persistent worker pool targets.
	rng := rand.New(rand.NewSource(61))
	l := randomLower(rng, 300, 3, false)
	s, err := NewSolver(l, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	y := make([]float64, l.N)
	for round := 0; round < 10; round++ {
		rhs := stencil.RHS(l.N, int64(round+1))
		want := SolveSequential(l, rhs)
		got, _, err := s.Solve(rhs, y)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.VecMaxDiff(got, want); d > 1e-12 {
			t.Fatalf("round %d: solver differs from sequential by %v", round, d)
		}
	}
}

func TestReorderedSolverMatchesSequential(t *testing.T) {
	l, u, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 5)
	for _, tri := range []*sparse.Triangular{l, u} {
		s, err := NewReorderedSolver(tri, doconsider.Level, opts(4))
		if err != nil {
			t.Fatal(err)
		}
		want := tri.Solve(rhs, nil)
		got, _, err := s.Solve(rhs, nil)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.VecMaxDiff(got, want); d > 1e-12 {
			t.Fatalf("lower=%v: reordered solver differs from sequential by %v", tri.Lower, d)
		}
	}
}

func TestSolverRejectsShortRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	l := randomLower(rng, 20, 2, false)
	s, err := NewSolver(l, opts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Solve(make([]float64, 5), nil); err == nil {
		t.Error("short rhs accepted")
	}
}

func TestUseDoacrossILUMatchesSequentialApply(t *testing.T) {
	a, err := stencil.FivePointGrid(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	seqPre, err := sparse.NewILUPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	parPre, err := sparse.NewILUPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	release, err := UseDoacrossILU(parPre, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for round := 0; round < 5; round++ {
		r := stencil.RHS(a.Rows, int64(100+round))
		want := seqPre.Apply(r, nil)
		got := parPre.Apply(r, nil)
		if d := sparse.VecMaxDiff(got, want); d > 1e-12 {
			t.Fatalf("round %d: doacross preconditioner differs by %v", round, d)
		}
	}
}
