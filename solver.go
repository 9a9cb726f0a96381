package doacross

import (
	"doacross/internal/depgraph"
	"doacross/internal/doconsider"
	"doacross/internal/sparse"
	"doacross/internal/trisolve"
)

// Triangular is a sparse triangular matrix in the compressed row form the
// solvers consume (lower or upper, selected by its Lower field).
type Triangular = sparse.Triangular

// ILUPreconditioner is an incomplete-LU preconditioner whose two triangular
// substitutions can be rewired onto doacross solvers with UseDoacrossILU.
type ILUPreconditioner = sparse.ILUPreconditioner

// Solver binds a reusable doacross runtime to one triangular matrix: the
// scratch state, worker pool and (for reordered solvers) the reordering plan
// are built once and reused by every Solve, the access pattern of iterative
// Krylov drivers. A Solver is not safe for concurrent use; Close releases
// its worker pool.
type Solver = trisolve.Solver

// SolverKind identifies one of the triangular-solve methods compared in the
// paper's Table 1.
type SolverKind = trisolve.SolverKind

// Triangular-solve methods.
const (
	// SolverSequential is the ordinary sequential substitution.
	SolverSequential SolverKind = trisolve.Sequential
	// SolverDoacross is the preprocessed runtime in natural order, under
	// the executor WithExecutor selects: the plain doacross by default,
	// Wavefront or WavefrontDynamic for the pre-scheduled level-set
	// executions, or Auto.
	SolverDoacross SolverKind = trisolve.Doacross
	// SolverReordered is the doacross with doconsider-reordered iterations.
	SolverReordered SolverKind = trisolve.DoacrossReordered
	// SolverLinear is the linear-subscript doacross (no inspector).
	SolverLinear SolverKind = trisolve.LinearSubscript
)

// ReorderStrategy selects how the doconsider transformation derives a new
// iteration order from the dependency graph.
type ReorderStrategy = doconsider.Strategy

// Reordering strategies.
const (
	// ReorderNatural keeps the original iteration order.
	ReorderNatural ReorderStrategy = doconsider.Natural
	// ReorderLevel orders iterations by wavefront level.
	ReorderLevel ReorderStrategy = doconsider.Level
	// ReorderLevelInterleaved orders by wavefront, round-robining levels.
	ReorderLevelInterleaved ReorderStrategy = doconsider.LevelInterleaved
	// ReorderCriticalPath schedules critical-path iterations first.
	ReorderCriticalPath ReorderStrategy = doconsider.CriticalPath
)

// DepGraph is the true-dependency graph of a loop, the input to the
// reordering strategies and the dependency-structure analyses.
type DepGraph = depgraph.Graph

// TrisolveLoop returns the doacross Loop description of the substitution on
// t with the given right-hand side, for a lower (forward substitution) or an
// upper (backward substitution) triangular matrix alike: iteration k solves
// row k of a lower factor and row n-1-k of an upper one, so dependencies
// always point forward. Body reads the right-hand side from rhs; BodyMulti,
// run through Runtime.RunMulti, solves each column in place from the
// right-hand side it carries in. It is the loop every Solver runs, exposed so
// callers can Inspect a solve's dependency structure or drive Runtime.Run
// themselves.
func TrisolveLoop(t *Triangular, rhs []float64) (*Loop, error) {
	return trisolve.Loop(t, rhs)
}

// TrisolveGraph builds the true-dependency graph of the triangular solve on
// t in TrisolveLoop's iteration numbering.
func TrisolveGraph(t *Triangular) *DepGraph {
	return trisolve.Graph(t)
}

// NewSolver builds a reusable doacross solver for the triangular matrix t,
// choosing forward or backward substitution from t.Lower. The loop is
// validated once at construction.
func NewSolver(t *Triangular, opts ...Option) (*Solver, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return trisolve.NewSolver(t, o)
}

// NewReorderedSolver builds a reusable doacross solver whose iterations are
// rearranged once with the given doconsider strategy; every subsequent Solve
// reuses the plan.
func NewReorderedSolver(t *Triangular, strategy ReorderStrategy, opts ...Option) (*Solver, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return trisolve.NewReorderedSolver(t, strategy, o)
}

// SolveTriangular solves T*y = rhs once with the method identified by kind,
// on a lower or an upper triangular matrix alike: every doacross kind builds
// a Solver with the given options (WithExecutor included), solves once and
// closes it. For repeated solves on the same
// matrix build a Solver instead, which reuses the runtime across calls.
func SolveTriangular(kind SolverKind, t *Triangular, rhs []float64, opts ...Option) ([]float64, Report, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, Report{}, err
	}
	return trisolve.Solve(kind, t, rhs, o)
}

// SolveSequential solves T*y = rhs with the ordinary sequential
// substitution, the reference all parallel executors are verified against.
func SolveSequential(t *Triangular, rhs []float64) []float64 {
	return trisolve.SolveSequential(t, rhs)
}

// SolveRenumbered solves T*y = rhs by renumbering the unknowns with the
// doconsider ordering (a symmetric permutation of the matrix and right-hand
// side) and running the doacross in natural order on the renumbered system —
// the "transform the data" alternative to SolverReordered's "transform the
// schedule". Both produce identical results; comparing them isolates whether
// the reordering benefit comes from the iteration order alone. It renumbers
// forward substitutions only and returns an error for an upper factor.
func SolveRenumbered(t *Triangular, rhs []float64, strategy ReorderStrategy, opts ...Option) ([]float64, Report, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, Report{}, err
	}
	return trisolve.SolveRenumbered(t, rhs, strategy, o)
}

// UseDoacrossILU replaces both triangular substitutions of the ILU
// preconditioner with reusable preprocessed-doacross solvers (forward for L,
// backward for U), so an iterative Krylov solve reuses two persistent worker
// pools across every preconditioner application. It returns a release
// function that retires both pools; call it when the preconditioner is no
// longer needed.
func UseDoacrossILU(p *ILUPreconditioner, opts ...Option) (release func(), err error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return trisolve.UseDoacrossILU(p, o)
}

// UseDoacrossILUReordered is UseDoacrossILU with each factor's iterations
// rearranged once by the given doconsider strategy.
func UseDoacrossILUReordered(p *ILUPreconditioner, strategy ReorderStrategy, opts ...Option) (release func(), err error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return trisolve.UseDoacrossILUReordered(p, strategy, o)
}
