// Benchmarks regenerating the paper's evaluation, one benchmark per table or
// figure plus the DESIGN.md ablations, all driven through the public doacross
// facade.
//
//	go test -bench=. -benchmem
//
// Figure/table benchmarks come in two flavours: "live/..." runs the real
// goroutine runtime on this host (worker count = GOMAXPROCS), "simulated/..."
// replays the workload on the deterministic 16-processor machine model that
// reproduces the paper's Encore Multimax setting. The simulated benchmarks
// report the achieved parallel efficiency via custom benchmark metrics
// (eff/op), so the paper's headline numbers appear directly in the benchmark
// output.
package doacross_test

import (
	"context"
	"fmt"
	"testing"

	"doacross"
	"doacross/internal/depgraph"
	"doacross/internal/doconsider"
	"doacross/internal/experiments"
	"doacross/internal/machine"
	"doacross/internal/sched"
	"doacross/internal/stencil"
	"doacross/internal/testloop"
)

// liveWorkers is the worker count used by the live benchmarks.
var liveWorkers = experiments.DefaultLiveWorkers()

func liveOptions() []doacross.Option {
	return []doacross.Option{
		doacross.WithWorkers(liveWorkers),
		doacross.WithPolicy(doacross.Dynamic),
		doacross.WithChunk(128),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
	}
}

// newRuntime builds a facade runtime or fails the benchmark.
func newRuntime(b *testing.B, dataLen int, opts ...doacross.Option) *doacross.Runtime {
	b.Helper()
	rt, err := doacross.New(dataLen, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkFigure6TestLoop regenerates Figure 6 (Section 3.1): the efficiency
// of the preprocessed doacross on the Figure 4 test loop as a function of L.
func BenchmarkFigure6TestLoop(b *testing.B) {
	// Simulated: the full paper-scale sweep at P=16.
	b.Run("simulated/full-sweep", func(b *testing.B) {
		cfg := experiments.DefaultFigure6Config()
		var last experiments.Figure6Result
		for i := 0; i < b.N; i++ {
			var err error
			last, err = experiments.RunFigure6(cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		reportFig6Metrics(b, last)
	})

	// Simulated single points for the two M values at a representative even L.
	for _, m := range []int{1, 5} {
		for _, l := range []int{1, 14} {
			name := fmt.Sprintf("simulated/M=%d/L=%d", m, l)
			b.Run(name, func(b *testing.B) {
				tc := testloop.Config{N: 10000, M: m, L: l}
				g := tc.Graph()
				rp := machine.ReadPredsFromAccess(tc.Access())
				cm := experiments.Figure6CostModel(m)
				var eff float64
				for i := 0; i < b.N; i++ {
					res, err := machine.Simulate(g, machine.Config{
						Processors: experiments.PaperProcessors,
						Policy:     sched.Cyclic,
						ReadPreds:  rp,
					}, cm)
					if err != nil {
						b.Fatal(err)
					}
					eff = res.Efficiency
				}
				b.ReportMetric(eff, "eff")
			})
		}
	}

	// Live: the real runtime on this host, sequential vs. doacross.
	ctx := context.Background()
	for _, l := range []int{1, 14} {
		tc := testloop.Config{N: 20000, M: 5, L: l}
		loop := tc.Loop()
		base := tc.InitialData()
		b.Run(fmt.Sprintf("live/sequential/L=%d", l), func(b *testing.B) {
			y := append([]float64(nil), base...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(y, base)
				if err := doacross.RunSequential(loop, y); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("live/doacross/L=%d", l), func(b *testing.B) {
			rt := newRuntime(b, loop.Data, liveOptions()...)
			defer rt.Close()
			y := append([]float64(nil), base...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(y, base)
				if _, err := rt.Run(ctx, loop, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func reportFig6Metrics(b *testing.B, res experiments.Figure6Result) {
	if len(res.Points) == 0 {
		return
	}
	for _, p := range res.Points {
		if p.L == 1 {
			b.ReportMetric(p.Efficiency, fmt.Sprintf("effM%dL1", p.M))
		}
		if p.L == 14 {
			b.ReportMetric(p.Efficiency, fmt.Sprintf("effM%dL14", p.M))
		}
	}
}

// BenchmarkTable1TriangularSolve regenerates Table 1 (Section 3.2): sparse
// triangular solves on the five test systems.
func BenchmarkTable1TriangularSolve(b *testing.B) {
	// Simulated: the full five-problem table at P=16.
	b.Run("simulated/full-table", func(b *testing.B) {
		cfg := experiments.DefaultTable1Config()
		var last experiments.Table1Result
		for i := 0; i < b.N; i++ {
			var err error
			last, err = experiments.RunTable1(cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		if len(last.Rows) > 0 {
			plainLo, plainHi, reLo, reHi := last.SpeedupSummary()
			b.ReportMetric(plainLo, "plainEffMin")
			b.ReportMetric(plainHi, "plainEffMax")
			b.ReportMetric(reLo, "reordEffMin")
			b.ReportMetric(reHi, "reordEffMax")
		}
	})

	// Live solves per problem (the two smaller systems keep bench time sane).
	solveOpts := []doacross.Option{
		doacross.WithWorkers(liveWorkers),
		doacross.WithPolicy(doacross.Dynamic),
		doacross.WithChunk(32),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
	}
	for _, prob := range []stencil.Problem{stencil.SPE2, stencil.FivePoint} {
		l, _, err := stencil.LowerFactor(prob, 1)
		if err != nil {
			b.Fatal(err)
		}
		rhs := stencil.RHS(l.N, 7)
		b.Run(fmt.Sprintf("live/sequential/%v", prob), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doacross.SolveSequential(l, rhs)
			}
		})
		b.Run(fmt.Sprintf("live/doacross/%v", prob), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := doacross.SolveTriangular(doacross.SolverDoacross, l, rhs, solveOpts...); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("live/doacross-reordered/%v", prob), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := doacross.SolveTriangular(doacross.SolverReordered, l, rhs, solveOpts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOverhead measures Ablation A: the preprocessing,
// postprocessing and dependency-check overhead on a dependency-free loop
// (odd L), the decomposition behind the paper's odd-L efficiency floors.
func BenchmarkAblationOverhead(b *testing.B) {
	b.Run("simulated", func(b *testing.B) {
		var rows []experiments.OverheadRow
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = experiments.RunOverheadAblation(10000, []int{1, 5}, experiments.PaperProcessors)
			if err != nil {
				b.Fatal(err)
			}
		}
		if len(rows) == 2 {
			b.ReportMetric(rows[0].FullDoacrossEff, "floorM1")
			b.ReportMetric(rows[1].FullDoacrossEff, "floorM5")
		}
	})
	// Live: isolate the inspector and postprocessor phases of the runtime.
	ctx := context.Background()
	tc := testloop.Config{N: 50000, M: 1, L: 1}
	loop := tc.Loop()
	b.Run("live/inspector", func(b *testing.B) {
		rt := newRuntime(b, loop.Data, liveOptions()...)
		defer rt.Close()
		for i := 0; i < b.N; i++ {
			rt.Inspect(loop)
		}
	})
	b.Run("live/full-doacross", func(b *testing.B) {
		rt := newRuntime(b, loop.Data, liveOptions()...)
		defer rt.Close()
		y := tc.InitialData()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Run(ctx, loop, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live/doall-baseline", func(b *testing.B) {
		rt := newRuntime(b, loop.Data, liveOptions()...)
		defer rt.Close()
		y := tc.InitialData()
		for i := 0; i < b.N; i++ {
			if _, err := rt.RunDoall(loop, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBlocked measures Ablation B: the strip-mined (blocked)
// doacross of Section 2.3 across block sizes, live and simulated.
func BenchmarkAblationBlocked(b *testing.B) {
	tc := testloop.Config{N: 20000, M: 1, L: 12}
	b.Run("simulated", func(b *testing.B) {
		var rows []experiments.BlockedRow
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = experiments.RunBlockedAblation(tc, []int{250, 1000, 5000, 20000}, experiments.PaperProcessors)
			if err != nil {
				b.Fatal(err)
			}
		}
		if len(rows) > 0 {
			b.ReportMetric(rows[0].Efficiency, "effSmallBlock")
			b.ReportMetric(rows[len(rows)-1].Efficiency, "effFullBlock")
		}
	})
	ctx := context.Background()
	loop := tc.Loop()
	base := tc.InitialData()
	for _, block := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("live/block=%d", block), func(b *testing.B) {
			rt := newRuntime(b, loop.Data, liveOptions()...)
			defer rt.Close()
			y := append([]float64(nil), base...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(y, base)
				if _, err := rt.RunBlocked(ctx, loop, y, block); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLinearSubscript measures Ablation C: the inspector-based
// doacross against the linear-subscript variant that eliminates the
// preprocessing phase (Section 2.3).
func BenchmarkAblationLinearSubscript(b *testing.B) {
	ctx := context.Background()
	tc := testloop.Config{N: 20000, M: 1, L: 12}
	loop := tc.Loop()
	base := tc.InitialData()
	b.Run("live/inspector", func(b *testing.B) {
		rt := newRuntime(b, loop.Data, liveOptions()...)
		defer rt.Close()
		y := append([]float64(nil), base...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(y, base)
			if _, err := rt.Run(ctx, loop, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live/linear-subscript", func(b *testing.B) {
		rt := newRuntime(b, loop.Data, liveOptions()...)
		defer rt.Close()
		y := append([]float64(nil), base...)
		sub := tc.Subscript()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(y, base)
			if _, err := rt.RunLinear(loop, y, sub); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simulated", func(b *testing.B) {
		var rows []experiments.LinearRow
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = experiments.RunLinearAblation(10000, 1, []int{12}, experiments.PaperProcessors)
			if err != nil {
				b.Fatal(err)
			}
		}
		if len(rows) == 1 {
			b.ReportMetric(rows[0].InspectorEff, "inspectorEff")
			b.ReportMetric(rows[0].LinearEff, "linearEff")
		}
	})
}

// BenchmarkAblationSyncStrategy measures Ablation D: the cost of the
// synchronization strategy (the paper's busy wait vs. a yielding spin vs.
// parked notification vs. epoch-versioned tables) on the live runtime.
func BenchmarkAblationSyncStrategy(b *testing.B) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		b.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 7)
	common := []doacross.Option{
		doacross.WithWorkers(liveWorkers),
		doacross.WithPolicy(doacross.Dynamic),
		doacross.WithChunk(32),
	}
	cases := []struct {
		name string
		opts []doacross.Option
	}{
		{"spin-yield", append(common[:len(common):len(common)], doacross.WithWaitStrategy(doacross.WaitSpinYield))},
		{"notify", append(common[:len(common):len(common)], doacross.WithWaitStrategy(doacross.WaitNotify))},
		{"spin-yield-epoch", append(common[:len(common):len(common)], doacross.WithWaitStrategy(doacross.WaitSpinYield), doacross.WithEpochTables())},
	}
	for _, tc := range cases {
		b.Run("live/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := doacross.SolveTriangular(doacross.SolverDoacross, l, rhs, tc.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOrdering measures Ablation E: doconsider ordering
// strategies on the Table 1 dependency graphs (simulated at P=16).
func BenchmarkAblationOrdering(b *testing.B) {
	b.Run("simulated/5-PT", func(b *testing.B) {
		var rows []experiments.OrderingRow
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = experiments.RunOrderingAblation([]stencil.Problem{stencil.FivePoint}, experiments.PaperProcessors, 1)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range rows {
			b.ReportMetric(r.Efficiency, "eff_"+r.Strategy.String())
		}
	})
	// The planning cost itself (building the reordering) matters for a
	// runtime system; measure it live.
	l, _, err := stencil.LowerFactor(stencil.SevenPoint, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := doacross.TrisolveGraph(l)
	for _, s := range doconsider.Strategies {
		b.Run("live/plan/"+s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doconsider.NewPlan(g, s)
			}
		})
	}
}

// BenchmarkProcessorSweep measures Ablation F (extension): the simulated
// efficiency of the doacross triangular solve as the machine size grows.
func BenchmarkProcessorSweep(b *testing.B) {
	b.Run("simulated/trisolve-5PT", func(b *testing.B) {
		var res experiments.SweepResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = experiments.RunProcessorSweepTrisolve(stencil.FivePoint, experiments.DefaultSweepProcessors, 1)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, p := range res.Points {
			if p.Processors == 16 || p.Processors == 64 {
				b.ReportMetric(p.ReorderedEff, fmt.Sprintf("reordEffP%d", p.Processors))
			}
		}
	})
}

// BenchmarkExecutorComparison measures the pluggable execution strategies
// against each other on the paper's loop shapes: the Figure 4 test loop (even
// L, so real cross-iteration dependencies) and the Table 1 triangular solves.
// Doacross pays per-read flag checks and busy waits; wavefront pays one
// barrier per level off a cached pre-built schedule; auto inspects and picks.
func BenchmarkExecutorComparison(b *testing.B) {
	ctx := context.Background()
	executors := []struct {
		name string
		kind doacross.ExecutorKind
	}{
		{"doacross", doacross.Doacross},
		{"wavefront", doacross.Wavefront},
		{"wavefront-dynamic", doacross.WavefrontDynamic},
		{"auto", doacross.Auto},
	}

	for _, l := range []int{2, 14} {
		tc := testloop.Config{N: 20000, M: 5, L: l}
		loop := tc.Loop()
		base := tc.InitialData()
		for _, ex := range executors {
			b.Run(fmt.Sprintf("live/figure4/L=%d/%s", l, ex.name), func(b *testing.B) {
				rt := newRuntime(b, loop.Data,
					doacross.WithWorkers(liveWorkers),
					doacross.WithWaitStrategy(doacross.WaitSpinYield),
					doacross.WithExecutor(ex.kind),
				)
				defer rt.Close()
				y := append([]float64(nil), base...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(y, base)
					if _, err := rt.Run(ctx, loop, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	for _, prob := range []stencil.Problem{stencil.SPE2, stencil.FivePoint} {
		l, _, err := stencil.LowerFactor(prob, 1)
		if err != nil {
			b.Fatal(err)
		}
		rhs := stencil.RHS(l.N, 7)
		for _, ex := range executors {
			b.Run(fmt.Sprintf("live/trisolve/%v/%s", prob, ex.name), func(b *testing.B) {
				solver, err := doacross.NewSolver(l,
					doacross.WithWorkers(liveWorkers),
					doacross.WithPolicy(doacross.Dynamic),
					doacross.WithChunk(32),
					doacross.WithWaitStrategy(doacross.WaitSpinYield),
					doacross.WithExecutor(ex.kind),
				)
				if err != nil {
					b.Fatal(err)
				}
				defer solver.Close()
				y := make([]float64, l.N)
				var waits int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, rep, err := solver.Solve(rhs, y)
					if err != nil {
						b.Fatal(err)
					}
					waits = rep.WaitPolls
				}
				b.ReportMetric(float64(waits), "waits/op")
			})
		}
	}
}

// BenchmarkDynamicWavefront isolates the static-vs-dynamic within-level
// trade on the two regimes the cost model separates: "uniform" levels (every
// iteration reads one element — the claim traffic is pure overhead, static
// should win) and "skewed" levels (one hot iteration per level reads half
// the previous level — the static schedule serializes each level behind the
// hot worker, dynamic reclaims the imbalance). The loop shapes match the
// skewed acceptance tests; see also the machine-model crossover tests for
// the simulated counterpart.
func BenchmarkDynamicWavefront(b *testing.B) {
	ctx := context.Background()
	executors := []struct {
		name string
		kind doacross.ExecutorKind
	}{
		{"wavefront", doacross.Wavefront},
		{"wavefront-dynamic", doacross.WavefrontDynamic},
	}
	for _, shape := range []struct {
		name     string
		hotReads int
	}{
		{"uniform", 0},
		{"skewed", 48},
	} {
		loop, y0, err := skewedLevelLoop(64, 64, shape.hotReads)
		if err != nil {
			b.Fatal(err)
		}
		for _, ex := range executors {
			b.Run(fmt.Sprintf("live/%s/%s", shape.name, ex.name), func(b *testing.B) {
				rt := newRuntime(b, loop.Data,
					doacross.WithWorkers(liveWorkers),
					doacross.WithWaitStrategy(doacross.WaitSpinYield),
					doacross.WithExecutor(ex.kind),
				)
				defer rt.Close()
				y := append([]float64(nil), y0...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(y, y0)
					if _, err := rt.Run(ctx, loop, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScheduleCache measures what the wavefront schedule cache
// amortizes: "cold" builds a fresh solver per solve (every run pays the full
// inspection: graph build, level decomposition, schedule materialization),
// "warm" reuses one solver so every run after the first is a cache hit. The
// preNs/op metric isolates the inspection component — on warm runs it is the
// cost of the pointer-identity memo lookup, i.e. effectively zero.
func BenchmarkScheduleCache(b *testing.B) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		b.Fatal(err)
	}
	rhs := stencil.RHS(l.N, 7)
	opts := []doacross.Option{
		doacross.WithWorkers(liveWorkers),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
		doacross.WithExecutor(doacross.Wavefront),
	}
	b.Run("cold", func(b *testing.B) {
		var pre int64
		for i := 0; i < b.N; i++ {
			solver, err := doacross.NewSolver(l, opts...)
			if err != nil {
				b.Fatal(err)
			}
			_, rep, err := solver.Solve(rhs, nil)
			if err != nil {
				b.Fatal(err)
			}
			if rep.InspectCached {
				b.Fatal("fresh solver hit a cache")
			}
			pre += rep.PreTime.Nanoseconds()
			solver.Close()
		}
		b.ReportMetric(float64(pre)/float64(b.N), "preNs/op")
	})
	b.Run("warm", func(b *testing.B) {
		solver, err := doacross.NewSolver(l, opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer solver.Close()
		y := make([]float64, l.N)
		if _, _, err := solver.Solve(rhs, y); err != nil { // pay the cold inspect outside the timer
			b.Fatal(err)
		}
		var pre int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, rep, err := solver.Solve(rhs, y)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.InspectCached {
				b.Fatal("warm solve missed the cache")
			}
			pre += rep.PreTime.Nanoseconds()
		}
		b.ReportMetric(float64(pre)/float64(b.N), "preNs/op")
	})
}

// BenchmarkRunReuse measures the per-Run cost of repeated runs of a small
// loop on one reused runtime: workers started once, one fused phase
// submission per Run. BiCGSTAB in internal/krylov calls Run twice per solver
// iteration, so this cost is paid thousands of times per solve.
func BenchmarkRunReuse(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{1000, 10000} {
		tc := testloop.Config{N: n, M: 1, L: 2}
		loop := tc.Loop()
		base := tc.InitialData()
		for _, p := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("N=%d/P=%d/pooled", n, p), func(b *testing.B) {
				rt := newRuntime(b, loop.Data,
					doacross.WithWorkers(p),
					doacross.WithPolicy(doacross.Block),
					doacross.WithWaitStrategy(doacross.WaitSpinYield))
				defer rt.Close()
				y := append([]float64(nil), base...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(y, base)
					if _, err := rt.Run(ctx, loop, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSubstrates measures the supporting subsystems on their own:
// dependency-graph construction, the inspector, ILU(0) factorization and the
// discrete-event simulator. These are not paper results but bound the
// runtime cost of using the library.
func BenchmarkSubstrates(b *testing.B) {
	tc := testloop.Config{N: 20000, M: 5, L: 12}
	b.Run("depgraph/build", func(b *testing.B) {
		acc := tc.Access()
		for i := 0; i < b.N; i++ {
			depgraph.Build(acc)
		}
	})
	b.Run("stencil/ilu0-5pt", func(b *testing.B) {
		a, err := stencil.FivePointGrid(63, 63)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := stencil.LowerFactor(stencil.FivePoint, 1); err != nil {
				b.Fatal(err)
			}
		}
		_ = a
	})
	b.Run("machine/simulate-7pt", func(b *testing.B) {
		l, _, err := stencil.LowerFactor(stencil.SevenPoint, 1)
		if err != nil {
			b.Fatal(err)
		}
		g := doacross.TrisolveGraph(l)
		cm := experiments.TrisolveCostModel(l)
		for i := 0; i < b.N; i++ {
			if _, err := machine.Simulate(g, machine.Config{Processors: 16, Policy: sched.Cyclic}, cm); err != nil {
				b.Fatal(err)
			}
		}
	})
}
