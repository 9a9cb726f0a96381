// Command doabench regenerates every table and figure of the paper's
// evaluation section, plus the design-choice ablations described in
// DESIGN.md.
//
// Usage:
//
//	doabench -experiment fig6        # Figure 6: test-loop efficiency vs. L
//	doabench -experiment table1      # Table 1: sparse triangular solves
//	doabench -experiment overhead    # Ablation A: runtime overhead decomposition
//	doabench -experiment blocked     # Ablation B: strip-mined doacross
//	doabench -experiment linear      # Ablation C: linear-subscript variant
//	doabench -experiment ordering    # Ablation E: doconsider ordering strategies
//	doabench -experiment sweep       # Ablation F: processor-count sweep (extension)
//	doabench -experiment executors   # live executor sweep: doacross vs wavefront vs wavefront-dynamic
//	doabench -experiment live        # live goroutine measurements on this host
//	doabench -experiment serving     # serving throughput: K concurrent callers through the coalescing SolveService
//	doabench -experiment repair      # incremental plan repair vs cold re-inspection across edit-cone sizes
//	doabench -experiment tuning      # online self-tuning Auto: mis-seeded recovery by measured feedback
//	doabench -experiment all         # everything above
//
// The -experiment flag also accepts a comma-separated subset
// (e.g. -experiment executors,serving), useful when one invocation should
// emit a single machine-readable file covering several experiments.
//
// Flags -procs, -n and -seed override the simulated processor count, the
// Figure 6 iteration count and the SPE perturbation seed. The -check flag
// verifies the paper's qualitative claims and exits non-zero when a claim is
// violated. The -format flag renders the fig6/table1/sweep tables as text,
// Markdown or CSV. The -executors flag restricts the executors experiment to
// a comma-separated subset of doacross, wavefront, wavefront-dynamic, auto
// (default all); unknown experiment or executor names are rejected with the
// valid set spelled out.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"doacross/internal/experiments"
	"doacross/internal/stencil"
	"doacross/internal/testloop"
)

func main() {
	violations, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "%d qualitative claims violated\n", violations)
		os.Exit(2)
	}
}

// run parses args, runs the selected experiments and writes their tables to
// stdout. It returns the number of qualitative-claim violations -check found
// (zero without -check); an unknown experiment name, a failed experiment or
// an unwritable -json file is an error, and no later experiment runs.
func run(args []string, stdout io.Writer) (violations int, err error) {
	fs := flag.NewFlagSet("doabench", flag.ExitOnError)
	var (
		experiment = fs.String("experiment", "all", "comma-separated subset of fig6 | table1 | overhead | blocked | linear | ordering | sweep | executors | live | serving | repair | tuning | all")
		procs      = fs.Int("procs", experiments.PaperProcessors, "simulated processor count")
		n          = fs.Int("n", 10000, "Figure 6 outer iteration count")
		seed       = fs.Int64("seed", 1, "seed for the synthetic SPE operators")
		check      = fs.Bool("check", false, "verify the paper's qualitative claims and fail if violated")
		liveReps   = fs.Int("live-reps", 3, "repetitions for live measurements")
		format     = fs.String("format", "text", "output format for fig6/table1/sweep: text | markdown | csv")
		// The default deliberately differs from the committed baseline
		// (BENCH_results.json) so a partial experiment run cannot silently
		// clobber it; regenerating the baseline is an explicit -json.
		jsonPath    = fs.String("json", "BENCH_results.new.json", "write machine-readable results of the live/executors experiments here (empty disables)")
		liveWorkers = fs.String("workers", "", "comma-separated worker counts for the executors sweep (first entry also pins the serving solver; default: derived from GOMAXPROCS)")
		executors   = fs.String("executors", "", "comma-separated executors for the executors sweep: doacross | wavefront | wavefront-dynamic | auto (default: all)")
		callers     = fs.String("callers", "4,16", "comma-separated concurrent caller counts for the serving experiment")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}

	validExperiments := []string{"fig6", "table1", "overhead", "blocked", "linear", "ordering", "sweep", "executors", "live", "serving", "repair", "tuning", "all"}
	selected := make(map[string]bool)
	for _, raw := range strings.Split(*experiment, ",") {
		name := strings.TrimSpace(raw)
		known := false
		for _, valid := range validExperiments {
			if name == valid {
				known = true
				break
			}
		}
		if !known {
			return 0, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(validExperiments, ", "))
		}
		selected[name] = true
	}

	var benchRecords []experiments.BenchRecord
	step := func(name string, f func() (string, []string, error)) {
		if err != nil || !selected["all"] && !selected[name] {
			return
		}
		out, problems, ferr := f()
		if ferr != nil {
			err = fmt.Errorf("%s: %w", name, ferr)
			return
		}
		fmt.Fprintln(stdout, out)
		if *check {
			if len(problems) == 0 {
				fmt.Fprintf(stdout, "[check] %s: all qualitative claims reproduced\n\n", name)
			} else {
				for _, p := range problems {
					fmt.Fprintf(stdout, "[check] %s: VIOLATION: %s\n", name, p)
				}
				fmt.Fprintln(stdout)
				violations += len(problems)
			}
		}
	}

	step("fig6", func() (string, []string, error) {
		cfg := experiments.DefaultFigure6Config()
		cfg.N = *n
		cfg.Processors = *procs
		res, err := experiments.RunFigure6(cfg)
		if err != nil {
			return "", nil, err
		}
		out, err := res.AsTable().Format(*format)
		if err != nil {
			return "", nil, err
		}
		return out, res.CheckShape(), nil
	})

	step("table1", func() (string, []string, error) {
		cfg := experiments.DefaultTable1Config()
		cfg.Processors = *procs
		cfg.Seed = *seed
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			return "", nil, err
		}
		out, err := res.AsTable().Format(*format)
		if err != nil {
			return "", nil, err
		}
		return out, res.CheckShape(), nil
	})

	step("overhead", func() (string, []string, error) {
		rows, err := experiments.RunOverheadAblation(*n, []int{1, 5}, *procs)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatOverhead(rows), nil, nil
	})

	step("blocked", func() (string, []string, error) {
		tc := testloop.Config{N: *n, M: 1, L: 12}
		rows, err := experiments.RunBlockedAblation(tc, []int{125, 250, 500, 1000, 2500, 5000, *n}, *procs)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatBlocked(rows), nil, nil
	})

	step("linear", func() (string, []string, error) {
		rows, err := experiments.RunLinearAblation(*n, 1, []int{1, 4, 8, 12, 14}, *procs)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatLinear(rows), nil, nil
	})

	step("ordering", func() (string, []string, error) {
		rows, err := experiments.RunOrderingAblation(stencil.Problems, *procs, *seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatOrdering(rows), nil, nil
	})

	step("sweep", func() (string, []string, error) {
		var out strings.Builder
		var problems []string
		emit := func(s experiments.SweepResult) error {
			rendered, err := s.AsTable().Format(*format)
			if err != nil {
				return err
			}
			out.WriteString(rendered)
			out.WriteByte('\n')
			problems = append(problems, s.CheckShape()...)
			return nil
		}
		loopSweep, err := experiments.RunProcessorSweepTestLoop(testloop.Config{N: *n, M: 5, L: 12}, experiments.DefaultSweepProcessors)
		if err != nil {
			return "", nil, err
		}
		if err := emit(loopSweep); err != nil {
			return "", nil, err
		}
		for _, prob := range []stencil.Problem{stencil.FivePoint, stencil.SevenPoint} {
			s, err := experiments.RunProcessorSweepTrisolve(prob, experiments.DefaultSweepProcessors, *seed)
			if err != nil {
				return "", nil, err
			}
			if err := emit(s); err != nil {
				return "", nil, err
			}
		}
		return out.String(), problems, nil
	})

	step("executors", func() (string, []string, error) {
		workers := experiments.DefaultLiveWorkers()
		sweep := []int{workers}
		if workers > 2 {
			sweep = []int{2, workers}
		}
		if *liveWorkers != "" {
			sweep = nil
			for _, s := range strings.Split(*liveWorkers, ",") {
				w, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || w < 1 {
					return "", nil, fmt.Errorf("invalid -workers entry %q", s)
				}
				sweep = append(sweep, w)
			}
		}
		var execNames []string
		if *executors != "" {
			for _, s := range strings.Split(*executors, ",") {
				execNames = append(execNames, strings.TrimSpace(s))
			}
		}
		rows, err := experiments.RunExecutorSweep(
			[]stencil.Problem{stencil.SPE2, stencil.FivePoint, stencil.SevenPoint}, sweep, *liveReps, execNames...)
		if err != nil {
			return "", nil, err
		}
		benchRecords = append(benchRecords, experiments.ExecutorBenchRecords(rows)...)
		return experiments.FormatExecutorSweep(rows), experiments.CheckExecutorSweep(rows), nil
	})

	step("live", func() (string, []string, error) {
		workers := experiments.DefaultLiveWorkers()
		var results []experiments.LiveResult
		for _, tc := range []testloop.Config{
			{N: *n, M: 5, L: 1},
			{N: *n, M: 5, L: 14},
			// WorkPerTerm restores the paper's work-to-overhead regime (a
			// Multimax iteration cost microseconds); these rows show the live
			// runtime scaling on this host.
			{N: *n, M: 5, L: 1, WorkPerTerm: 400},
			{N: *n, M: 5, L: 14, WorkPerTerm: 400},
		} {
			r, err := experiments.RunLiveTestLoop(tc, workers, *liveReps)
			if err != nil {
				return "", nil, err
			}
			results = append(results, r)
		}
		// The row of the scaling claim -check verifies: a fixed loop, worker
		// count and repetition count, whatever the flags say.
		scaling, err := experiments.RunLiveScaling()
		if err != nil {
			return "", nil, err
		}
		results = append(results, scaling)
		for _, prob := range []stencil.Problem{stencil.FivePoint, stencil.SevenPoint} {
			for _, variant := range experiments.TrisolveVariants {
				r, err := experiments.RunLiveTrisolve(prob, workers, *liveReps, variant)
				if err != nil {
					return "", nil, err
				}
				results = append(results, r)
			}
		}
		// The motivating application: preconditioned CG with reusable
		// doacross triangular solvers (persistent pool reuse end to end).
		r, err := experiments.RunLiveKrylovReuse(workers, *liveReps)
		if err != nil {
			return "", nil, err
		}
		results = append(results, r)
		benchRecords = append(benchRecords, experiments.LiveBenchRecords(results)...)
		return experiments.FormatLive(results), experiments.CheckLive(results, scaling), nil
	})

	step("serving", func() (string, []string, error) {
		workers := experiments.DefaultLiveWorkers()
		if *liveWorkers != "" {
			first := strings.Split(*liveWorkers, ",")[0]
			w, err := strconv.Atoi(strings.TrimSpace(first))
			if err != nil || w < 1 {
				return "", nil, fmt.Errorf("invalid -workers entry %q", first)
			}
			workers = w
		}
		var ks []int
		for _, s := range strings.Split(*callers, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || k < 1 {
				return "", nil, fmt.Errorf("invalid -callers entry %q", s)
			}
			ks = append(ks, k)
		}
		var results []experiments.ServingResult
		for _, k := range ks {
			cfg := experiments.DefaultServingConfig(stencil.FivePoint, workers, k)
			cfg.Repeat = *liveReps
			rows, err := experiments.RunServing(cfg)
			if err != nil {
				return "", nil, err
			}
			results = append(results, rows...)
		}
		benchRecords = append(benchRecords, experiments.ServingBenchRecords(results)...)
		return experiments.FormatServing(results), experiments.CheckServing(results), nil
	})

	step("repair", func() (string, []string, error) {
		workers := experiments.DefaultLiveWorkers()
		sweep := []int{workers}
		if workers > 1 {
			sweep = []int{1, workers}
		}
		if *liveWorkers != "" {
			sweep = nil
			for _, s := range strings.Split(*liveWorkers, ",") {
				w, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || w < 1 {
					return "", nil, fmt.Errorf("invalid -workers entry %q", s)
				}
				sweep = append(sweep, w)
			}
		}
		rows, err := experiments.RunRepairExperiment(
			[]stencil.Problem{stencil.SPE2, stencil.FivePoint}, sweep, []int{1, 4, 16}, *liveReps)
		if err != nil {
			return "", nil, err
		}
		benchRecords = append(benchRecords, experiments.RepairBenchRecords(rows)...)
		return experiments.FormatRepair(rows), experiments.CheckRepair(rows), nil
	})

	step("tuning", func() (string, []string, error) {
		workers := experiments.DefaultLiveWorkers()
		if workers > 4 {
			// A chain run under the busy-wait doacross spins every worker; past
			// a few the oversubscription noise drowns the comparison without
			// changing its direction.
			workers = 4
		}
		if *liveWorkers != "" {
			first := strings.Split(*liveWorkers, ",")[0]
			w, err := strconv.Atoi(strings.TrimSpace(first))
			if err != nil || w < 1 {
				return "", nil, fmt.Errorf("invalid -workers entry %q", first)
			}
			workers = w
		}
		truthReps := *liveReps
		if truthReps < 3 {
			truthReps = 3
		}
		rows, err := experiments.RunTuningExperiment(workers, 30, truthReps)
		if err != nil {
			return "", nil, err
		}
		benchRecords = append(benchRecords, experiments.TuningBenchRecords(rows)...)
		return experiments.FormatTuning(rows), experiments.CheckTuning(rows), nil
	})

	if err != nil {
		return 0, err
	}
	if *jsonPath != "" && len(benchRecords) > 0 {
		if err := experiments.WriteBenchJSON(*jsonPath, benchRecords); err != nil {
			return 0, fmt.Errorf("writing %s: %w", *jsonPath, err)
		}
		fmt.Fprintf(stdout, "wrote %d machine-readable records to %s\n", len(benchRecords), *jsonPath)
	}
	return violations, nil
}
