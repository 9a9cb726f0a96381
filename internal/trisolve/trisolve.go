// Package trisolve expresses the sparse triangular solve of the paper's
// Figure 7,
//
//	do i = 1, n
//	  y(i) = rhs(i)
//	  do j = low(i), high(i)
//	    y(i) = y(i) - a(j) * y(column(j))
//	  end do
//	end do
//
// as a preprocessed doacross loop and provides the executors compared in the
// paper's Table 1: the sequential solve, the plain preprocessed doacross and
// the doconsider-reordered preprocessed doacross, plus the runtime's
// wavefront executors and the linear-subscript variant.
//
// One loop serves both orientations through its row map: iteration k solves
// row rows[k], which is k for a lower triangular matrix (forward
// substitution) and n-1-k for an upper one (backward substitution, which
// runs from the last row up). Either way every dependence points from a lower
// to a higher iteration index, which is what the preprocessed doacross
// requires.
//
// The dependencies between elements of y are determined by the column index
// array, which is only known at run time — exactly the situation the
// preprocessed doacross targets. Because the left-hand-side subscript is a
// linear function of the iteration index (a(k) = k, or n-1-k), the loop also
// exercises the linear-subscript variant of Section 2.3.
package trisolve

import (
	"context"
	"fmt"

	"doacross/internal/core"
	"doacross/internal/depgraph"
	"doacross/internal/doconsider"
	"doacross/internal/sparse"
)

// rowMap returns the substitution's row map on t: rows[k] is the row
// iteration k solves, k for a lower factor and n-1-k for an upper one. It is
// also the loop's write index, since iteration k writes y[rows[k]].
func rowMap(t *sparse.Triangular) []int {
	rows := make([]int, t.N)
	for k := range rows {
		if t.Lower {
			rows[k] = k
		} else {
			rows[k] = t.N - 1 - k
		}
	}
	return rows
}

// Loop builds the core.Loop implementing the substitution on the triangular
// matrix t with right-hand side rhs: iteration k solves row rows[k] of the
// row map (see the package doc) and reads the columns of that row, all of
// which earlier iterations write (true dependencies). Body reads the
// right-hand side from rhs. BodyMulti solves in place: each column RunMulti
// carries holds its right-hand side on entry, and the runtime seeds the
// written row from it, so the body starts from v.Row.
func Loop(t *sparse.Triangular, rhs []float64) (*core.Loop, error) {
	if len(rhs) < t.N {
		return nil, fmt.Errorf("trisolve: rhs has %d entries for %d unknowns", len(rhs), t.N)
	}
	rows := rowMap(t)
	return &core.Loop{
		N:      t.N,
		Data:   t.N,
		Writes: func(k int) []int { return rows[k : k+1] },
		Reads:  func(k int) []int { i := rows[k]; return t.Col[t.RowPtr[i]:t.RowPtr[i+1]] },
		Body: func(k int, v *core.Values) {
			i := rows[k]
			s := rhs[i]
			for kk := t.RowPtr[i]; kk < t.RowPtr[i+1]; kk++ {
				s -= t.Val[kk] * v.Load(t.Col[kk])
			}
			if !t.UnitDiag {
				s /= t.Diag[i]
			}
			v.Store(i, s)
		},
		// The blocked body is the same substitution applied to a whole row of
		// columns per element: one dependency classification (and at most one
		// wait) covers the row, then the multiply-adds run over contiguous
		// memory, which is what multiplies arithmetic intensity per level
		// barrier.
		BodyMulti: func(k int, v *core.MultiValues) {
			i := rows[k]
			out := v.Row(i)
			for kk := t.RowPtr[i]; kk < t.RowPtr[i+1]; kk++ {
				a := t.Val[kk]
				row := v.LoadRow(t.Col[kk])
				for c := range out {
					out[c] -= a * row[c]
				}
			}
			if !t.UnitDiag {
				d := t.Diag[i]
				for c := range out {
					out[c] /= d
				}
			}
		},
	}, nil
}

// Graph builds the true-dependency graph of the substitution on t in the
// loop's iteration numbering: iteration k depends on the iterations solving
// the columns of row rows[k].
func Graph(t *sparse.Triangular) *depgraph.Graph {
	rows := rowMap(t)
	return depgraph.Build(depgraph.Access{
		N:      t.N,
		Writes: func(k int) []int { return rows[k : k+1] },
		Reads: func(k int) []int {
			i := rows[k]
			return t.Col[t.RowPtr[i]:t.RowPtr[i+1]]
		},
	})
}

// Subscript returns the linear left-hand-side subscript of the substitution
// on t, a(k) = rows[k] (k for a lower factor, n-1-k for an upper one), for
// use with the linear-subscript doacross variant.
func Subscript(t *sparse.Triangular) core.LinearSubscript {
	if t.Lower {
		return core.LinearSubscript{C: 1, D: 0}
	}
	return core.LinearSubscript{C: -1, D: t.N - 1}
}

// SolveSequential solves T*y = rhs with the ordinary sequential substitution
// (the paper's Table 1 "Sequential Time" column).
func SolveSequential(t *sparse.Triangular, rhs []float64) []float64 {
	return t.Solve(rhs, nil)
}

// Solver binds a reusable doacross runtime to one triangular matrix. The
// whole premise of the preprocessed doacross is that one set of scratch
// state and processors is reused across successive executions of the same
// loop; an iterative driver (a Krylov method applies its ILU preconditioner
// — two triangular solves — once or twice per iteration) should therefore
// build the runtime, the worker pool and any reordering plan once and reuse
// them for every solve, which is what Solver provides. The one-shot Solve
// builds a Solver, solves once and closes it.
//
// A Solver is not safe for concurrent use. Close releases the worker pool.
type Solver struct {
	t    *sparse.Triangular
	rt   *core.Runtime
	loop *core.Loop
	rhs  []float64 // owned buffer the loop reads; refilled per Solve
}

// NewSolver builds a reusable doacross solver for the triangular matrix t,
// choosing forward or backward substitution from t.Lower.
func NewSolver(t *sparse.Triangular, opts core.Options) (*Solver, error) {
	s := &Solver{t: t, rhs: make([]float64, t.N)}
	var err error
	if s.loop, err = Loop(t, s.rhs); err != nil {
		return nil, err
	}
	// Validation is cheap here: the forward solve hits Loop.Validate's
	// identity fast path, and the backward solve reuses the pooled writer
	// scratch, so building solvers in a loop stays allocation-light.
	if err := s.loop.Validate(); err != nil {
		return nil, err
	}
	s.rt = core.NewRuntime(t.N, opts)
	return s, nil
}

// NewReorderedSolver builds a reusable doacross solver whose iterations are
// rearranged once with the given doconsider strategy; every subsequent Solve
// reuses the plan. The wavefront executor derives its own level order, so
// combining it with a reordering is rejected here rather than failing on the
// first Solve.
func NewReorderedSolver(t *sparse.Triangular, strategy doconsider.Strategy, opts core.Options) (*Solver, error) {
	if opts.Executor == core.ExecWavefront || opts.Executor == core.ExecWavefrontDynamic {
		return nil, fmt.Errorf("trisolve: a reordered solver cannot use the %v executor (it derives its own level order)", opts.Executor)
	}
	g := Graph(t)
	plan := doconsider.NewPlan(g, strategy)
	if err := doconsider.Validate(g, plan.Order); err != nil {
		return nil, err
	}
	opts.Order = plan.Order
	return NewSolver(t, opts)
}

// N reports the number of unknowns of the solver's triangular system — the
// length a right-hand side must have. The serving front end (internal/serve)
// uses it to validate requests before they join a batch.
func (s *Solver) N() int { return s.t.N }

// Solve solves T*y = rhs with the preprocessed doacross, writing the
// solution into y (allocated when nil) and returning it with the execution
// report. rhs is copied into the solver's owned buffer, so the caller's
// slice is never retained.
func (s *Solver) Solve(rhs, y []float64) ([]float64, core.Report, error) {
	return s.SolveContext(context.Background(), rhs, y)
}

// SolveContext is Solve with cancellation: the underlying doacross run is
// aborted (and the solver left reusable) as soon as ctx is cancelled.
func (s *Solver) SolveContext(ctx context.Context, rhs, y []float64) ([]float64, core.Report, error) {
	if len(rhs) < s.t.N {
		return nil, core.Report{}, fmt.Errorf("trisolve: rhs has %d entries for %d unknowns", len(rhs), s.t.N)
	}
	if y == nil {
		y = make([]float64, s.t.N)
	}
	copy(s.rhs, rhs[:s.t.N])
	rep, err := s.rt.RunContext(ctx, s.loop, y)
	if err != nil {
		return nil, core.Report{}, err
	}
	return y, rep, nil
}

// SolveMulti solves T*Y[c] = B[c] for every column of B in one blocked
// multi-RHS run: the runtime walks the dependency structure once per block of
// up to core.MaxRHSBlock columns, so the per-solve fixed costs (level
// barriers, flag maintenance, classification) amortize across the block — the
// batching primitive the serving front end coalesces concurrent requests
// onto. Y is the solution columns, allocated (column-wise or entirely) when
// nil, and is returned with the report of core.Runtime.RunMulti. Each B column
// is copied into its Y column, which the substitution then solves in place,
// so the callers' B slices are neither written nor retained — concurrent
// enqueuers can reuse their buffers as soon as their request completes. A Y
// column may be its own B column but must not alias another one.
func (s *Solver) SolveMulti(B, Y [][]float64) ([][]float64, core.Report, error) {
	return s.SolveMultiContext(context.Background(), B, Y)
}

// SolveMultiContext is SolveMulti with cancellation: the underlying run is
// aborted (and the solver left reusable) as soon as ctx is cancelled. The
// contents of Y are unspecified after a failed solve.
func (s *Solver) SolveMultiContext(ctx context.Context, B, Y [][]float64) ([][]float64, core.Report, error) {
	n := s.t.N
	if len(B) == 0 {
		return nil, core.Report{}, fmt.Errorf("trisolve: SolveMulti requires at least one right-hand side")
	}
	for c, b := range B {
		if len(b) < n {
			return nil, core.Report{}, fmt.Errorf("trisolve: rhs column %d has %d entries for %d unknowns", c, len(b), n)
		}
	}
	if Y == nil {
		Y = make([][]float64, len(B))
	}
	if len(Y) != len(B) {
		return nil, core.Report{}, fmt.Errorf("trisolve: %d solution columns for %d right-hand sides", len(Y), len(B))
	}
	for c := range Y {
		if Y[c] == nil {
			Y[c] = make([]float64, n)
		} else if len(Y[c]) < n {
			return nil, core.Report{}, fmt.Errorf("trisolve: solution column %d has %d entries for %d unknowns", c, len(Y[c]), n)
		}
		copy(Y[c], B[c][:n])
	}
	rep, err := s.rt.RunMulti(ctx, s.loop, Y)
	if err != nil {
		return nil, core.Report{}, err
	}
	return Y, rep, nil
}

// UpdateRow replaces row i of the solver's triangular matrix (see
// sparse.Triangular.SetRow) and repairs the cached wavefront plan in place
// instead of discarding it: only the edited row's dependencies are
// re-inspected and only the levels its dirty cone actually perturbs are
// rebuilt, so a per-step sparsity change (mesh refinement, ILU fill-in)
// costs orders of magnitude less than the cold re-inspect a full
// invalidation would force. The loop's Reads closure slices the matrix's CSR
// arrays directly, so the splice is all the data change needed; the repair
// brings the cached dependency graph, level decomposition and schedule in
// line with it.
//
// The returned report says whether the plan was patched (Repaired) or the
// runtime fell back to a cold re-inspect on the next solve — both leave the
// solver consistent. On a SetRow error the matrix and plan are unchanged.
func (s *Solver) UpdateRow(i int, cols []int, vals []float64, diag float64) (core.RepairReport, error) {
	if err := s.t.SetRow(i, cols, vals, diag); err != nil {
		return core.RepairReport{}, err
	}
	k := i
	if !s.t.Lower {
		k = s.t.N - 1 - i
	}
	return s.rt.RepairPlans(s.loop, core.EditSet{Iters: []int{k}})
}

// InvalidatePlans evicts the solver's cached wavefront plans, forcing the
// next solve to re-inspect cold. It is the blunt alternative to UpdateRow's
// incremental repair, needed when the matrix was mutated directly (not
// through UpdateRow) or to measure the cold inspection cost.
func (s *Solver) InvalidatePlans() { s.rt.InvalidatePlans() }

// Trace returns the per-iteration trace of the most recent Solve when the
// solver was built with Options.CollectTrace, or nil otherwise.
func (s *Solver) Trace() *core.Trace { return s.rt.Trace() }

// Close releases the solver's worker pool. It is idempotent.
func (s *Solver) Close() { s.rt.Close() }

// UseDoacrossILU replaces both triangular substitutions of the ILU
// preconditioner with reusable preprocessed-doacross solvers (forward for L,
// backward for U), so an iterative Krylov solve reuses two persistent worker
// pools across every preconditioner application instead of building a
// runtime per substitution. It returns a release function that retires both
// pools; call it when the preconditioner is no longer needed.
func UseDoacrossILU(p *sparse.ILUPreconditioner, opts core.Options) (release func(), err error) {
	return wireILU(p, func(t *sparse.Triangular) (*Solver, error) {
		return NewSolver(t, opts)
	})
}

// UseDoacrossILUReordered is UseDoacrossILU with each factor's iterations
// rearranged once by the given doconsider strategy.
func UseDoacrossILUReordered(p *sparse.ILUPreconditioner, strategy doconsider.Strategy, opts core.Options) (release func(), err error) {
	return wireILU(p, func(t *sparse.Triangular) (*Solver, error) {
		return NewReorderedSolver(t, strategy, opts)
	})
}

func wireILU(p *sparse.ILUPreconditioner, mk func(*sparse.Triangular) (*Solver, error)) (func(), error) {
	lower, err := mk(p.L)
	if err != nil {
		return nil, err
	}
	upper, err := mk(p.U)
	if err != nil {
		lower.Close()
		return nil, err
	}
	// The substitution hooks cannot return an error; a Solve failure here
	// means the preconditioner's factors changed shape under the solver,
	// which is a programming error, so it panics.
	p.SolveLower = func(_ *sparse.Triangular, rhs, y []float64) []float64 {
		sol, _, e := lower.Solve(rhs, y)
		if e != nil {
			panic(fmt.Sprintf("trisolve: lower ILU substitution failed: %v", e))
		}
		return sol
	}
	p.SolveUpper = func(_ *sparse.Triangular, rhs, y []float64) []float64 {
		sol, _, e := upper.Solve(rhs, y)
		if e != nil {
			panic(fmt.Sprintf("trisolve: upper ILU substitution failed: %v", e))
		}
		return sol
	}
	return func() {
		lower.Close()
		upper.Close()
	}, nil
}

// SolveRenumbered solves T*y = rhs by renumbering the unknowns with the
// doconsider ordering (a symmetric permutation of the matrix and right-hand
// side) and running the preprocessed doacross in natural order on the
// renumbered system. It is the "transform the data" alternative to the
// reordered solver's "transform the schedule": both produce identical
// results, and comparing them isolates whether the benefit of the doconsider
// comes from the iteration order alone. It renumbers forward substitutions
// only and rejects an upper triangular matrix.
func SolveRenumbered(t *sparse.Triangular, rhs []float64, strategy doconsider.Strategy, opts core.Options) ([]float64, core.Report, error) {
	if !t.Lower {
		return nil, core.Report{}, fmt.Errorf("trisolve: SolveRenumbered requires a lower triangular matrix")
	}
	g := Graph(t)
	plan := doconsider.NewPlan(g, strategy)
	if err := doconsider.Validate(g, plan.Order); err != nil {
		return nil, core.Report{}, err
	}
	perm, err := sparse.NewPermutationFromOrder(plan.Order)
	if err != nil {
		return nil, core.Report{}, err
	}
	pt, err := perm.PermuteTriangular(t)
	if err != nil {
		return nil, core.Report{}, err
	}
	prhs := perm.PermuteVector(rhs)
	py, rep, err := Solve(Doacross, pt, prhs, opts)
	if err != nil {
		return nil, core.Report{}, err
	}
	rep.Order = "renumbered"
	return perm.UnpermuteVector(py), rep, nil
}

// SolveLinear solves T*y = rhs with the linear-subscript doacross variant
// (no inspector), exploiting a(k) = rows[k] (see Subscript).
func SolveLinear(t *sparse.Triangular, rhs []float64, opts core.Options) ([]float64, core.Report, error) {
	l, err := Loop(t, rhs)
	if err != nil {
		return nil, core.Report{}, err
	}
	y := make([]float64, t.N)
	rt := core.NewRuntime(t.N, opts)
	defer rt.Close()
	rep, err := rt.RunLinear(l, y, Subscript(t))
	if err != nil {
		return nil, core.Report{}, err
	}
	return y, rep, nil
}

// SolverKind identifies one of the triangular-solve methods, used by the
// experiment harness and the CLI. The doacross kinds run under whatever
// executor their options select (core.Options.Executor).
type SolverKind int

const (
	Sequential SolverKind = iota
	Doacross
	DoacrossReordered
	LinearSubscript
)

// String returns the method's name as used in reports.
func (k SolverKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case Doacross:
		return "doacross"
	case DoacrossReordered:
		return "doacross-reordered"
	case LinearSubscript:
		return "doacross-linear"
	default:
		return "unknown"
	}
}

// Solve solves T*y = rhs once with the method identified by kind, on a
// lower or an upper triangular matrix alike. Every doacross kind builds a
// Solver (a reordered one, with the level strategy, for DoacrossReordered),
// solves once and closes it; LinearSubscript runs SolveLinear, and
// Sequential the plain substitution, which ignores opts.
func Solve(kind SolverKind, t *sparse.Triangular, rhs []float64, opts core.Options) ([]float64, core.Report, error) {
	var (
		s   *Solver
		err error
	)
	switch kind {
	case Sequential:
		return SolveSequential(t, rhs), core.Report{Workers: 1, Iterations: t.N, Order: "sequential"}, nil
	case LinearSubscript:
		return SolveLinear(t, rhs, opts)
	case Doacross:
		s, err = NewSolver(t, opts)
	case DoacrossReordered:
		s, err = NewReorderedSolver(t, doconsider.Level, opts)
	default:
		return nil, core.Report{}, fmt.Errorf("trisolve: unknown solver kind %d", int(kind))
	}
	if err != nil {
		return nil, core.Report{}, err
	}
	defer s.Close()
	return s.Solve(rhs, nil)
}
