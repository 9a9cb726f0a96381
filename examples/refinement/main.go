// Dynamic sparsity: repairing the cached wavefront plan across a
// refinement-style edit loop.
//
// This example builds the SPE2 test problem's ILU(0) lower factor, solves it
// once with the wavefront executor (paying the cold inspection), then drives
// a sequence of in-place row edits through Solver.UpdateRow — the fused
// "splice the CSR row, then RepairPlans" call. Each step prints what the
// repair did (dirty-cone size, earliest perturbed level, repair time), and
// every repaired solve is verified against the sequential substitution of
// the edited matrix. At the end the same edit is replayed against a full
// InvalidatePlans to show the cold re-inspection the repair path avoids,
// alongside the cost model's break-even cone for this workload.
//
// Run with:
//
//	go run ./examples/refinement
package main

import (
	"fmt"

	"doacross"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
	"doacross/internal/tune"
)

func main() {
	prob := stencil.SPE2
	l, _, err := stencil.LowerFactor(prob, 1)
	if err != nil {
		panic(err)
	}
	rhs := stencil.RHS(l.N, 7)
	g := doacross.TrisolveGraph(l)
	st := g.Analyze()
	fmt.Printf("ILU(0) lower factor of %v: %d equations, %d dependency edges, %d wavefront levels\n",
		prob, st.Iterations, st.Edges, st.Levels)

	solver, err := doacross.NewSolver(l,
		doacross.WithWorkers(2),
		doacross.WithExecutor(doacross.Wavefront),
		doacross.WithChunk(32),
	)
	if err != nil {
		panic(err)
	}
	defer solver.Close()

	out := make([]float64, l.N)
	_, rep, err := solver.Solve(rhs, out)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncold first solve: inspection took %v (PreTime), %d levels\n", rep.PreTime, rep.Levels)

	// The refinement loop: thin a few rows of the factor one at a time, the
	// way fill-in or a refined mesh perturbs a handful of equations between
	// solves. Each UpdateRow splices the row in place and patches the cached
	// plan; nothing is rebuilt from scratch.
	fmt.Println("\nrefinement steps (one row edited per step):")
	edited := []int{l.N / 4, l.N / 2, 3 * l.N / 4}
	for _, i := range edited {
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		if hi == lo {
			continue // no off-diagonal entries to drop
		}
		cols := append([]int(nil), l.Col[lo:hi-1]...)
		vals := append([]float64(nil), l.Val[lo:hi-1]...)
		rr, err := solver.UpdateRow(i, cols, vals, l.Diag[i])
		if err != nil {
			panic(err)
		}
		fmt.Printf("  row %5d: repaired=%v cone=%d fromLevel=%d/%d in %v\n",
			i, rr.Repaired, rr.ConeSize, rr.FromLevel, rr.Levels, rr.RepairTime)

		got, runRep, err := solver.Solve(rhs, out)
		if err != nil {
			panic(err)
		}
		want := doacross.SolveSequential(l, rhs)
		if d := sparse.VecMaxDiff(got, want); d > 1e-9 {
			panic(fmt.Sprintf("repaired solve diverged from sequential by %.2e", d))
		}
		fmt.Printf("             solve matches sequential; Report.PlanRepaired=%v RepairNs=%d\n",
			runRep.PlanRepaired, runRep.RepairNs)
	}

	// The road not taken: a wholesale invalidation forces the next solve to
	// re-inspect the whole loop cold — the bill RepairPlans' dirty-cone pass
	// replaces.
	solver.InvalidatePlans()
	_, coldRep, err := solver.Solve(rhs, out)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nafter InvalidatePlans, the cold re-inspection costs %v again\n", coldRep.PreTime)

	// Where the runtime's gate sits for this workload: edits whose dirty
	// cone stays under the break-even threshold repair, larger ones fall
	// back to the cold path (RepairReport.Repaired == false).
	breakEven := tune.BreakEvenCone(st.Iterations, st.Edges)
	if breakEven > st.Iterations {
		breakEven = st.Iterations
	}
	fmt.Printf("cost model: cold inspection %.0f units, break-even cone %d of %d iterations\n",
		tune.ColdInspectUnits(st.Iterations, st.Edges), breakEven, st.Iterations)
}
