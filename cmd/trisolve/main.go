// Command trisolve generates one of the paper's five test triangular systems
// and solves it with the executors compared in Table 1, reporting wall-clock
// times on the host and verifying all solutions against the sequential
// substitution. All solves go through the public doacross facade.
//
// Usage:
//
//	trisolve -problem 5-PT -workers 8 -solver all
//	trisolve -problem SPE2 -solver doacross-reordered
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"doacross"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
	"doacross/internal/trace"
)

func problemByName(name string) (stencil.Problem, error) {
	for _, p := range stencil.Problems {
		if strings.EqualFold(p.String(), name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown problem %q (choose from SPE2, SPE5, 5-PT, 7-PT, 9-PT)", name)
}

// solverKinds lists the solvers the CLI runs, in output order; each one's
// -solver name is its SolverKind.String.
var solverKinds = []doacross.SolverKind{
	doacross.SolverSequential,
	doacross.SolverDoacross,
	doacross.SolverReordered,
	doacross.SolverLinear,
	doacross.SolverWavefront,
	doacross.SolverWavefrontDynamic,
}

func main() {
	var names []string
	for _, kind := range solverKinds {
		names = append(names, kind.String())
	}
	var (
		problem   = flag.String("problem", "5-PT", "test system: SPE2, SPE5, 5-PT, 7-PT or 9-PT")
		workers   = flag.Int("workers", 4, "number of workers for the parallel solvers")
		solver    = flag.String("solver", "all", strings.Join(names, " | ")+" | all")
		repeat    = flag.Int("repeat", 3, "timing repetitions (best is reported)")
		seed      = flag.Int64("seed", 1, "seed for the synthetic SPE operators")
		showTrace = flag.Bool("trace", false, "print a per-worker execution trace summary of the doacross solve")
	)
	flag.Parse()
	if *solver != "all" && !slices.Contains(names, *solver) {
		// An unknown solver name would fall through the solve loop and
		// silently solve nothing; reject it with the valid set instead.
		fmt.Fprintf(os.Stderr, "unknown solver %q (valid: %s, all)\n", *solver, strings.Join(names, ", "))
		os.Exit(1)
	}

	prob, err := problemByName(*problem)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("Building %v (%d equations) and its ILU(0) lower factor...\n", prob, prob.Equations())
	l, _, err := stencil.LowerFactor(prob, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rhs := stencil.RHS(l.N, 7)
	g := doacross.TrisolveGraph(l)
	st := g.Analyze()
	fmt.Printf("Dependency structure: %s\n\n", st)

	reference := doacross.SolveSequential(l, rhs)
	opts := []doacross.Option{
		doacross.WithWorkers(*workers),
		doacross.WithPolicy(doacross.Dynamic),
		doacross.WithChunk(32),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
	}

	fmt.Printf("%-20s %12s %10s %10s  %s\n", "solver", "time", "speedup", "eff", "check")
	var seqTime time.Duration
	for _, kind := range solverKinds {
		name := kind.String()
		if *solver != "all" && *solver != name {
			continue
		}
		var out []float64
		sample := trace.Measure(*repeat, func() {
			var solveErr error
			out, _, solveErr = doacross.SolveTriangular(kind, l, rhs, opts...)
			if solveErr != nil {
				fmt.Fprintln(os.Stderr, solveErr)
				os.Exit(1)
			}
		})
		best := sample.Min()
		if kind == doacross.SolverSequential {
			seqTime = best
		}
		check := "ok"
		if d := sparse.VecMaxDiff(out, reference); d > 1e-9 {
			check = fmt.Sprintf("MISMATCH %.2e", d)
		}
		speedup, eff := 0.0, 0.0
		if seqTime > 0 && kind != doacross.SolverSequential {
			speedup = trace.Speedup(seqTime, best)
			eff = trace.Efficiency(seqTime, best, *workers)
		}
		fmt.Printf("%-20s %12v %10.2f %10.2f  %s\n", name, best, speedup, eff, check)
	}

	if *showTrace {
		// A traced solver: one extra solve with per-iteration tracing on.
		tracedOpts := append(opts[:len(opts):len(opts)], doacross.WithTrace())
		s, err := doacross.NewSolver(l, tracedOpts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer s.Close()
		if _, _, err := s.Solve(rhs, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(s.Trace().Summarize())
	}
}
