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
	"io"
	"os"
	"slices"
	"strings"

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

// solvers lists the solvers the CLI runs, in output order: each row's
// -solver name, its SolverKind, and the executor it runs under.
var solvers = []struct {
	name string
	kind doacross.SolverKind
	exec doacross.ExecutorKind
}{
	{"sequential", doacross.SolverSequential, doacross.Doacross},
	{"doacross", doacross.SolverDoacross, doacross.Doacross},
	{"doacross-reordered", doacross.SolverReordered, doacross.Doacross},
	{"doacross-linear", doacross.SolverLinear, doacross.Doacross},
	{"doacross-wavefront", doacross.SolverDoacross, doacross.Wavefront},
	{"doacross-wavefront-dynamic", doacross.SolverDoacross, doacross.WavefrontDynamic},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, solves the chosen system with the chosen solvers and
// writes the report to stdout. Every row's speedup and efficiency are taken
// against the sequential reference solve, timed like the rows, so they are
// real whether or not the sequential row itself is printed.
func run(args []string, stdout io.Writer) error {
	var names []string
	for _, sv := range solvers {
		names = append(names, sv.name)
	}
	fs := flag.NewFlagSet("trisolve", flag.ExitOnError)
	var (
		problem   = fs.String("problem", "5-PT", "test system: SPE2, SPE5, 5-PT, 7-PT or 9-PT")
		workers   = fs.Int("workers", 4, "number of workers for the parallel solvers")
		solver    = fs.String("solver", "all", strings.Join(names, " | ")+" | all")
		repeat    = fs.Int("repeat", 3, "timing repetitions (best is reported)")
		seed      = fs.Int64("seed", 1, "seed for the synthetic SPE operators")
		showTrace = fs.Bool("trace", false, "print a per-worker execution trace summary of the doacross solve")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *solver != "all" && !slices.Contains(names, *solver) {
		// An unknown solver name would fall through the solve loop and
		// silently solve nothing; reject it with the valid set instead.
		return fmt.Errorf("unknown solver %q (valid: %s, all)", *solver, strings.Join(names, ", "))
	}

	prob, err := problemByName(*problem)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "Building %v (%d equations) and its ILU(0) lower factor...\n", prob, prob.Equations())
	l, _, err := stencil.LowerFactor(prob, *seed)
	if err != nil {
		return err
	}
	rhs := stencil.RHS(l.N, 7)
	g := doacross.TrisolveGraph(l)
	st := g.Analyze()
	fmt.Fprintf(stdout, "Dependency structure: %s\n\n", st)

	var reference []float64
	seqTime := trace.Measure(*repeat, func() { reference = doacross.SolveSequential(l, rhs) }).Min()
	opts := []doacross.Option{
		doacross.WithWorkers(*workers),
		doacross.WithPolicy(doacross.Dynamic),
		doacross.WithChunk(32),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
	}

	fmt.Fprintf(stdout, "%-20s %12s %10s %10s  %s\n", "solver", "time", "speedup", "eff", "check")
	for _, sv := range solvers {
		if *solver != "all" && *solver != sv.name {
			continue
		}
		svOpts := append(opts[:len(opts):len(opts)], doacross.WithExecutor(sv.exec))
		var out []float64
		var solveErr error
		best := trace.Measure(*repeat, func() {
			if solveErr == nil {
				out, _, solveErr = doacross.SolveTriangular(sv.kind, l, rhs, svOpts...)
			}
		}).Min()
		if solveErr != nil {
			return solveErr
		}
		check := "ok"
		if d := sparse.VecMaxDiff(out, reference); d > 1e-9 {
			check = fmt.Sprintf("MISMATCH %.2e", d)
		}
		speedup, eff := 0.0, 0.0
		if seqTime > 0 && sv.kind != doacross.SolverSequential {
			speedup = trace.Speedup(seqTime, best)
			eff = trace.Efficiency(seqTime, best, *workers)
		}
		fmt.Fprintf(stdout, "%-20s %12v %10.2f %10.2f  %s\n", sv.name, best, speedup, eff, check)
	}

	if *showTrace {
		// A traced solver: one extra solve with per-iteration tracing on.
		tracedOpts := append(opts[:len(opts):len(opts)], doacross.WithTrace())
		s, err := doacross.NewSolver(l, tracedOpts...)
		if err != nil {
			return err
		}
		defer s.Close()
		if _, _, err := s.Solve(rhs, nil); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, s.Trace().Summarize())
	}
	return nil
}
