// Sparse triangular solve: the paper's Section 3.2 workload.
//
// This example builds the 5-PT test problem (63x63 five point discretization,
// 3969 equations), factors it with ILU(0), and solves the unit lower
// triangular system L y = b four ways: sequentially, with the plain
// preprocessed doacross, with the doconsider-reordered doacross, and with the
// runtime's wavefront executor, which runs the inspected level sets from a
// cached plan. All parallel results are verified against the sequential
// substitution, and the simulated 16-processor efficiencies corresponding to
// the paper's Table 1 row are printed alongside.
//
// Run with:
//
//	go run ./examples/triangular
package main

import (
	"fmt"

	"doacross"
	"doacross/internal/experiments"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
	"doacross/internal/trace"
)

func main() {
	prob := stencil.FivePoint
	workers := experiments.DefaultLiveWorkers()

	fmt.Printf("Building %v (%d equations) and computing its ILU(0) factorization...\n", prob, prob.Equations())
	l, _, err := stencil.LowerFactor(prob, 1)
	if err != nil {
		panic(err)
	}
	rhs := stencil.RHS(l.N, 7)
	g := doacross.TrisolveGraph(l)
	fmt.Printf("Lower factor: %d rows, %d off-diagonal nonzeros\n", l.N, l.NNZ())
	fmt.Printf("Dependency DAG: %s\n\n", g.Analyze())

	reference := doacross.SolveSequential(l, rhs)
	opts := []doacross.Option{
		doacross.WithWorkers(workers),
		doacross.WithPolicy(doacross.Dynamic),
		doacross.WithChunk(32),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
	}

	seqSample := trace.Measure(5, func() { doacross.SolveSequential(l, rhs) })
	fmt.Printf("%-22s %12v\n", "sequential", seqSample.Min())

	solvers := []struct {
		name string
		kind doacross.SolverKind
		exec doacross.ExecutorKind
	}{
		{"doacross", doacross.SolverDoacross, doacross.Doacross},
		{"doacross-reordered", doacross.SolverReordered, doacross.Doacross},
		{"doacross-wavefront", doacross.SolverDoacross, doacross.Wavefront},
	}
	for _, sv := range solvers {
		svOpts := append(opts[:len(opts):len(opts)], doacross.WithExecutor(sv.exec))
		var out []float64
		sample := trace.Measure(5, func() {
			var solveErr error
			out, _, solveErr = doacross.SolveTriangular(sv.kind, l, rhs, svOpts...)
			if solveErr != nil {
				panic(solveErr)
			}
		})
		status := "matches sequential"
		if d := sparse.VecMaxDiff(out, reference); d > 1e-9 {
			status = fmt.Sprintf("MISMATCH %.2e", d)
		}
		fmt.Printf("%-22s %12v  speedup %.2f  (%s)\n",
			sv.name, sample.Min(), trace.Speedup(seqSample.Min(), sample.Min()), status)
	}

	// The paper-scale picture (simulated 16 processors): the plain doacross
	// versus the reordered doacross — the 5-PT row of Table 1.
	t1, err := experiments.RunTable1(experiments.Table1Config{
		Problems:   []stencil.Problem{prob},
		Processors: experiments.PaperProcessors,
		Seed:       1,
		Reordering: doacross.ReorderLevel,
	})
	if err != nil {
		panic(err)
	}
	row := t1.Rows[0]
	fmt.Printf("\nSimulated 16-processor efficiencies for the Table 1 row of %v:\n", prob)
	fmt.Printf("  preprocessed doacross            %.2f\n", row.DoacrossEff)
	fmt.Printf("  doacross with doconsider order   %.2f   (paper band 0.63..0.75)\n", row.ReorderedEff)
	fmt.Printf("  simulated times (ms): doacross %.0f, reordered %.0f, sequential %.0f\n",
		row.DoacrossMs, row.ReorderedMs, row.SequentialMs)
}
