package trisolve_test

import (
	"fmt"

	"doacross/internal/core"
	"doacross/internal/doconsider"
	"doacross/internal/flags"
	"doacross/internal/sparse"
	"doacross/internal/trisolve"
)

// ExampleSolve solves a small lower triangular system with the preprocessed
// doacross and verifies it against the sequential substitution — the
// comparison at the heart of the paper's Table 1.
func ExampleSolve() {
	// L = [1 0 0; 2 1 0; 0 3 1] with unit diagonal off-diagonal entries
	// stored explicitly.
	a := sparse.FromDense([][]float64{
		{1, 0, 0},
		{2, 1, 0},
		{0, 3, 1},
	})
	l := sparse.LowerTriangle(a)
	rhs := []float64{1, 4, 10}

	seq := trisolve.SolveSequential(l, rhs)
	par, _, err := trisolve.Solve(trisolve.Doacross, l, rhs, core.Options{Workers: 2, WaitStrategy: flags.WaitSpinYield})
	if err != nil {
		panic(err)
	}
	fmt.Println("sequential:", seq)
	fmt.Println("doacross:  ", par)
	// Output:
	// sequential: [1 2 4]
	// doacross:   [1 2 4]
}

// ExampleNewReorderedSolver applies the doconsider (level) reordering before
// the doacross — the paper's "Iterations Rearranged" column.
func ExampleNewReorderedSolver() {
	a := sparse.FromDense([][]float64{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{1, 0, 1, 0},
		{0, 1, 0, 1},
	})
	l := sparse.LowerTriangle(a)
	rhs := []float64{1, 2, 4, 6}
	s, err := trisolve.NewReorderedSolver(l, doconsider.Level, core.Options{Workers: 2, WaitStrategy: flags.WaitSpinYield})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	y, rep, err := s.Solve(rhs, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("y:", y)
	fmt.Println("order:", rep.Order)
	// Output:
	// y: [1 2 3 4]
	// order: reordered
}
