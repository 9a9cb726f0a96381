package trisolve

import (
	"math/rand"
	"testing"

	"doacross/internal/core"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
)

// randomRowEdit draws a fresh off-diagonal pattern for row i of a lower
// (below=true) or upper (below=false) triangular matrix of size n.
func randomRowEdit(rng *rand.Rand, n, i int, below bool) (cols []int, vals []float64) {
	var pool []int
	if below {
		for j := 0; j < i; j++ {
			pool = append(pool, j)
		}
	} else {
		for j := i + 1; j < n; j++ {
			pool = append(pool, j)
		}
	}
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	k := rng.Intn(4)
	if k > len(pool) {
		k = len(pool)
	}
	for _, j := range pool[:k] {
		cols = append(cols, j)
		vals = append(vals, rng.NormFloat64()*0.3)
	}
	return cols, vals
}

// TestSolverUpdateRowMatchesSequential drives random row updates through
// UpdateRow and checks every subsequent parallel solve against the
// sequential substitution of the spliced matrix — for both substitution
// directions and both wavefront executors.
func TestSolverUpdateRowMatchesSequential(t *testing.T) {
	for _, exec := range []core.ExecutorKind{core.ExecWavefront, core.ExecWavefrontDynamic} {
		for _, lowerTri := range []bool{true, false} {
			rng := rand.New(rand.NewSource(29))
			var tr *sparse.Triangular
			if lowerTri {
				tr = randomLower(rng, 240, 3, false)
			} else {
				tr = randomUpper(rng, 240, 3)
			}
			o := opts(3)
			o.Executor = exec
			s, err := NewSolver(tr, o)
			if err != nil {
				t.Fatal(err)
			}
			rhs := stencil.RHS(tr.N, 7)
			check := func(label string) {
				t.Helper()
				got, _, err := s.Solve(rhs, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := tr.Solve(rhs, nil)
				if d := sparse.VecMaxDiff(got, want); d > 1e-12 {
					t.Fatalf("%s (exec %v lower %v): solve differs by %v", label, exec, lowerTri, d)
				}
			}
			check("cold solve")
			repaired := 0
			for step := 0; step < 20; step++ {
				i := 1 + rng.Intn(tr.N-1)
				if !lowerTri {
					i = rng.Intn(tr.N - 1)
				}
				cols, vals := randomRowEdit(rng, tr.N, i, lowerTri)
				rep, err := s.UpdateRow(i, cols, vals, 2+rng.Float64())
				if err != nil {
					t.Fatalf("step %d: UpdateRow(%d): %v", step, i, err)
				}
				if rep.Repaired {
					repaired++
				}
				check("post-update solve")
			}
			if repaired == 0 {
				t.Fatalf("exec %v lower %v: no update took the repair path", exec, lowerTri)
			}
			s.Close()
		}
	}
}

// TestSolverUpdateRowRejectsBadRow checks a SetRow failure surfaces as an
// error and leaves both the matrix and the cached plan untouched.
func TestSolverUpdateRowRejectsBadRow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := randomLower(rng, 64, 2, false)
	o := opts(2)
	o.Executor = core.ExecWavefront
	s, err := NewSolver(tr, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rhs := stencil.RHS(tr.N, 1)
	if _, _, err := s.Solve(rhs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateRow(5, []int{7}, []float64{1}, 2); err == nil {
		t.Fatal("forward column accepted in a lower-triangular update")
	}
	_, rep, err := s.Solve(rhs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.InspectCached {
		t.Fatal("a rejected UpdateRow evicted the cached plan")
	}
}

// TestSolveMultiReportsRepair checks the repair stamp on the blocked path:
// the first run after UpdateRow reports the repair whichever entry point it
// takes, so a SolveMulti wider than one column block reports it (with the
// repair's time) and the Solve after it does not.
func TestSolveMultiReportsRepair(t *testing.T) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(l, multiOpts(2, core.ExecWavefront))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	B := make([][]float64, core.MaxRHSBlock+5)
	for c := range B {
		B[c] = stencil.RHS(l.N, int64(c))
	}
	if _, _, err := s.SolveMulti(B, nil); err != nil {
		t.Fatal(err)
	}
	i := l.N / 2
	cols, vals := randomRowEdit(rand.New(rand.NewSource(37)), l.N, i, true)
	rr, err := s.UpdateRow(i, cols, vals, l.Diag[i])
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Repaired {
		t.Fatalf("UpdateRow(%d) fell back to invalidation: %+v", i, rr)
	}
	_, rep, err := s.SolveMulti(B, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PlanRepaired || rep.RepairNs != rr.RepairTime.Nanoseconds() {
		t.Errorf("SolveMulti after UpdateRow: PlanRepaired=%v RepairNs=%d, want true and %d",
			rep.PlanRepaired, rep.RepairNs, rr.RepairTime.Nanoseconds())
	}
	_, rep, err = s.Solve(B[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanRepaired || rep.RepairNs != 0 {
		t.Errorf("Solve after the reported repair: PlanRepaired=%v RepairNs=%d, want false and 0", rep.PlanRepaired, rep.RepairNs)
	}
}
