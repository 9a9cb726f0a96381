// Acceptance suite for the online self-tuning Auto selection
// (WithOnlineTuning): the deterministic parts of the recovery from
// deliberately wrong seed coefficients on a loop with a decisive executor
// winner and on the paper's SPE2 triangular solve (their host-timing claims
// are experiments.CheckTuning, run by doabench -check),
// post-run report stamping, concurrent-feedback reconciliation against the
// metrics collector, and the WithAutoCosts freeze.
package doacross_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"doacross"
	"doacross/internal/experiments"
)

// tuningChainLoop builds a pure dependency chain: iteration i writes element
// i and reads element i-1. A chain is the most lopsided executor comparison
// the runtime has — the busy-wait doacross pipelines it with one flag wait
// per iteration, while the wavefront executor decomposes it into N unit-width
// levels and pays N full barriers — so the truly fastest executor is
// doacross by a wide margin at any realistic cost ratio.
func tuningChainLoop(n int) *doacross.Loop {
	return &doacross.Loop{
		N:      n,
		Data:   n,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			if i == 0 {
				return nil
			}
			return []int{i - 1}
		},
		Body: func(i int, v *doacross.Values) {
			x := 1.0
			if i > 0 {
				x = v.Load(i-1) + 1
			}
			v.Store(i, x)
		},
	}
}

// misledToward returns seed coefficients whose model prediction prefers the
// named contested executor on any chain-shaped loop, by pricing the other
// executors' synchronization primitives catastrophically: barriers toward
// the doacross, flag checks and chunk claims toward the static wavefront
// (the seeds of experiments.RunTuningExperiment).
func misledToward(executor string) doacross.AutoCosts {
	if executor == "doacross" {
		return doacross.AutoCosts{BarrierNs: 1e6, FlagCheckNs: 0.01, ClaimNs: 25, IterNs: 100}
	}
	return doacross.AutoCosts{BarrierNs: 0.01, FlagCheckNs: 5000, ClaimNs: 1e6, IterNs: 100}
}

// TestOnlineTuningConvergesOnChain pins the deterministic part of the chain
// recovery run: seeded with coefficients that mislead the model toward either
// contested executor, run 0 greedily picks that executor, seed 5 explores
// exactly runs 3, 20 and 27 (one Float64 draw per decision), both contested
// arms get measured and the tuner tracks one plan. Whether measured feedback
// then flips the pick to the faster executor depends on the host's timing:
// experiments.CheckTuning asserts that on the same chain, seed and budget
// (convergence within half the budget, the best arm's moving average below
// the worst arm's, and the simulator replaying those averages converging
// too), run by doabench -experiment tuning -check in CI. So this test
// measures no ground truth and never skips.
func TestOnlineTuningConvergesOnChain(t *testing.T) {
	const n, workers, runs = 512, 4, 30
	l := tuningChainLoop(n)
	for _, misled := range []string{"doacross", "wavefront"} {
		rt, err := doacross.New(n,
			doacross.WithWorkers(workers),
			doacross.WithExecutor(doacross.Auto),
			doacross.WithOnlineTuning(doacross.TuningOptions{
				InitialCosts: misledToward(misled),
				Seed:         5,
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, n)
		var explored []int
		for r := 0; r < runs; r++ {
			rep, err := rt.Run(context.Background(), l, y)
			if err != nil {
				t.Fatal(err)
			}
			if r == 0 && (rep.Explored || rep.Executor != misled) {
				t.Fatalf("misled toward %s: run 0 ran %q (explored %v); the seed coefficients should make it a greedy %s pick",
					misled, rep.Executor, rep.Explored, misled)
			}
			if rep.Explored {
				explored = append(explored, r)
			}
		}
		if !slices.Equal(explored, []int{3, 20, 27}) {
			t.Errorf("misled toward %s: explored runs %v, want seed 5's [3 20 27]", misled, explored)
		}
		snap := rt.TuningSnapshot()
		rt.Close()
		if len(snap.Plans) != 1 {
			t.Fatalf("misled toward %s: tuner tracks %d plans, want 1", misled, len(snap.Plans))
		}
		if p := snap.Plans[0]; p.Doacross.Observations == 0 || p.Wavefront.Observations == 0 {
			t.Errorf("misled toward %s: both contested arms should have been measured: %+v", misled, p)
		}
	}
}

// TestOnlineTuningSPE2Trisolve is the convergence acceptance test on the
// paper's workload: the near-tie row of experiments.RunTuningExperiment,
// forward substitution on the SPE2 factor at 2 workers with all three
// executors in play. The tuned runtime starts from coefficients that
// mislead it into the measured-worse of the doacross and the static
// wavefront; measured feedback and exploration must take over from there
// (seed 6 explores early, at runs 2, 3, 8, ..., so all three arms get
// measured). The executor margins on SPE2 are thin and machine-dependent, so
// the bound on where the tuner settles (within 1.5x of the lowest measured
// average) is a host-timing claim checked by doabench -experiment tuning
// -check; this test keeps the row's deterministic claims.
func TestOnlineTuningSPE2Trisolve(t *testing.T) {
	rows, err := experiments.RunTuningExperiment(2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[len(rows)-1]
	t.Logf("%s", experiments.FormatTuning(rows))
	if r.MisSeededPick != r.Misled {
		t.Fatalf("run 0 picked arm %d; the seed coefficients should pin it to arm %d", r.MisSeededPick, r.Misled)
	}
	for e, arm := range r.Arms {
		if arm.Observations == 0 {
			t.Errorf("exploration never measured arm %d: %+v", e, r.Arms)
		}
	}
	if r.FinalPick < 0 || r.Arms[r.FinalPick].Observations == 0 {
		t.Fatalf("settled arm %d was never observed: %+v", r.FinalPick, r.Arms)
	}
}

// TestOnlineTuningRestampsPredictions is the regression test for the
// pre-run-stamping bug: a tuned run's Report.Predicted*Ns (and TunedCosts)
// must describe the post-observation model — exactly what PredictN returns
// for the report's own TunedCosts — not the coefficients the decision was
// made with. The seed's absurd per-iteration cost makes the two stampings
// orders of magnitude apart, so the old behaviour cannot pass.
func TestOnlineTuningRestampsPredictions(t *testing.T) {
	const n = 256
	seed := doacross.AutoCosts{BarrierNs: 400, FlagCheckNs: 30, ClaimNs: 25, IterNs: 1e6}
	rt, err := doacross.New(n,
		doacross.WithWorkers(2),
		doacross.WithExecutor(doacross.Auto),
		doacross.WithOnlineTuning(doacross.TuningOptions{InitialCosts: seed, Seed: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	l := tuningChainLoop(n)
	y := make([]float64, n)

	var rep doacross.Report
	for r := 0; r < 3; r++ {
		if rep, err = rt.Run(context.Background(), l, y); err != nil {
			t.Fatal(err)
		}
	}
	if rep.TunedCosts == seed {
		t.Fatal("three observed runs left the tuned coefficients at the seed")
	}
	if rep.TunedCosts.IterNs >= seed.IterNs {
		t.Errorf("the absurd IterNs seed was not calibrated down: %v", rep.TunedCosts.IterNs)
	}
	st, err := rt.Inspect(l)
	if err != nil {
		t.Fatal(err)
	}
	wantDa, wantWf, wantDyn := rep.TunedCosts.PredictN(st, 2, 1)
	if rep.PredictedDoacrossNs != wantDa || rep.PredictedWavefrontNs != wantWf || rep.PredictedDynamicNs != wantDyn {
		t.Errorf("report predictions were not re-stamped from the post-run coefficients:\ngot  (%v, %v, %v)\nwant (%v, %v, %v)",
			rep.PredictedDoacrossNs, rep.PredictedWavefrontNs, rep.PredictedDynamicNs, wantDa, wantWf, wantDyn)
	}
	// And the pre-run AutoCosts stamp still carries the decision's base.
	if rep.AutoCosts != seed {
		t.Errorf("Report.AutoCosts = %+v, want the seed coefficients %+v", rep.AutoCosts, seed)
	}
}

// TestOnlineTuningConcurrent hammers a tuned runtime from several goroutines
// and reconciles every counter three ways: the reports the callers saw, the
// runtime's tuning snapshot, and the metrics collector's TuningSink counts.
// Run under -race, this is also the data-race proof for the feedback path.
func TestOnlineTuningConcurrent(t *testing.T) {
	const n, goroutines, runsEach = 96, 8, 25
	c := doacross.NewMetricsCollector()
	rt, err := doacross.New(n,
		doacross.WithWorkers(3),
		doacross.WithExecutor(doacross.Auto),
		doacross.WithMetrics(c),
		doacross.WithOnlineTuning(doacross.TuningOptions{
			InitialCosts: doacross.AutoCosts{BarrierNs: 400, FlagCheckNs: 30, ClaimNs: 25, IterNs: 50},
			Seed:         11,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	l := tuningChainLoop(n)

	var mu sync.Mutex
	var explored uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, n)
			for r := 0; r < runsEach; r++ {
				rep, err := rt.Run(context.Background(), l, y)
				if err != nil {
					t.Errorf("run failed: %v", err)
					return
				}
				if rep.Explored {
					mu.Lock()
					explored++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	const total = goroutines * runsEach
	snap := rt.TuningSnapshot()
	if snap.Observations != total {
		t.Errorf("tuner observed %d runs, want %d", snap.Observations, total)
	}
	if snap.Explorations != explored {
		t.Errorf("tuner explorations = %d, reports say %d", snap.Explorations, explored)
	}
	if len(snap.Plans) != 1 {
		t.Fatalf("tuner tracks %d plans, want 1", len(snap.Plans))
	}
	p := snap.Plans[0]
	if got := p.Doacross.Observations + p.Wavefront.Observations + p.WavefrontDynamic.Observations; got != total {
		t.Errorf("per-arm observations sum to %d, want %d", got, total)
	}
	ms := c.Snapshot()
	if ms.TuningObservations != total || ms.TuningExplorations != explored {
		t.Errorf("collector saw %d/%d tuning events, want %d/%d",
			ms.TuningObservations, ms.TuningExplorations, total, explored)
	}
	if ms.Runs != total {
		t.Errorf("collector saw %d runs, want %d", ms.Runs, total)
	}
}

// TestOnlineTuningFrozenByAutoCosts checks the freeze contract at the public
// surface: combining WithOnlineTuning with WithAutoCosts pins the model, so
// the tuner records nothing — its snapshot is identical before and after any
// number of runs, and reports carry no tuned stamps.
func TestOnlineTuningFrozenByAutoCosts(t *testing.T) {
	const n = 128
	rt, err := doacross.New(n,
		doacross.WithWorkers(2),
		doacross.WithExecutor(doacross.Auto),
		doacross.WithAutoCosts(doacross.AutoCosts{BarrierNs: 1000, FlagCheckNs: 5, ClaimNs: 25, IterNs: 80}),
		doacross.WithOnlineTuning(doacross.TuningOptions{Seed: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	l := tuningChainLoop(n)
	y := make([]float64, n)

	before := rt.TuningSnapshot()
	for r := 0; r < 5; r++ {
		rep, err := rt.Run(context.Background(), l, y)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TunedCosts != (doacross.AutoCosts{}) || rep.Explored {
			t.Fatalf("frozen tuner stamped the report: %+v explored=%v", rep.TunedCosts, rep.Explored)
		}
	}
	after := rt.TuningSnapshot()
	if fmt.Sprintf("%+v", before) != fmt.Sprintf("%+v", after) || after.Observations != 0 || len(after.Plans) != 0 {
		t.Fatalf("frozen tuner state changed:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestWithOnlineTuningValidation checks the option's argument contract.
func TestWithOnlineTuningValidation(t *testing.T) {
	bad := []doacross.TuningOptions{
		{Epsilon: 1.5},
		{InitialCosts: doacross.AutoCosts{BarrierNs: -1, FlagCheckNs: 5, ClaimNs: 25}},
		{InitialCosts: doacross.AutoCosts{BarrierNs: 100, ClaimNs: 25}}, // missing flag cost
		{InitialCosts: doacross.AutoCosts{BarrierNs: 100, FlagCheckNs: 5, ClaimNs: -2}},
		{InitialCosts: doacross.AutoCosts{BarrierNs: 100, FlagCheckNs: 5, IterNs: 80}}, // missing claim cost
		{InitialCosts: doacross.AutoCosts{BarrierNs: math.NaN(), FlagCheckNs: 5, ClaimNs: 25}},
		{InitialCosts: doacross.AutoCosts{BarrierNs: math.Inf(1), FlagCheckNs: 5, ClaimNs: 25}},
		{InitialCosts: doacross.AutoCosts{BarrierNs: 100, FlagCheckNs: 5, ClaimNs: math.NaN()}},
		{InitialCosts: doacross.AutoCosts{BarrierNs: 100, FlagCheckNs: 5, ClaimNs: 25, IterNs: math.Inf(1)}},
	}
	for i, o := range bad {
		if _, err := doacross.New(8, doacross.WithOnlineTuning(o)); err == nil {
			t.Errorf("case %d: invalid tuning options %+v accepted", i, o)
		}
	}
	// Negative Epsilon is the documented greedy mode, not an error.
	rt, err := doacross.New(8, doacross.WithOnlineTuning(doacross.TuningOptions{Epsilon: -1}))
	if err != nil {
		t.Fatalf("greedy tuning rejected: %v", err)
	}
	rt.Close()
}
