// Acceptance suite for the online self-tuning Auto selection
// (WithOnlineTuning): convergence from deliberately wrong seed coefficients
// on a loop with a decisive executor winner and on the paper's SPE2
// triangular solve, post-run report stamping, concurrent-feedback
// reconciliation against the metrics collector, and the WithAutoCosts freeze.
package doacross_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"doacross"
	"doacross/internal/machine"
	"doacross/internal/stencil"
	"doacross/internal/tune"
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
// named executor on any chain-shaped loop, by pricing the other executor's
// synchronization primitive catastrophically. No claim coefficient: the
// dynamic arm is excluded, isolating the two-way flip.
func misledToward(executor string) doacross.AutoCosts {
	if executor == "doacross" {
		return doacross.AutoCosts{BarrierNs: 1e6, FlagCheckNs: 0.01, IterNs: 100}
	}
	return doacross.AutoCosts{BarrierNs: 0.01, FlagCheckNs: 5000, IterNs: 100}
}

// TestOnlineTuningConvergesOnChain is the convergence acceptance test on the
// decisive shape: a long dependency chain, where the busy-wait doacross and
// the barrier-per-level wavefront are typically orders of magnitude apart
// (which of the two wins depends on how the host schedules spinning
// workers, so the test measures its own ground truth first). Seeded with
// coefficients that make the model pick the measured-WORST executor, the
// tuner must flip to the measured-best one within half the run budget and
// stay there for every later greedy decision. The exploration seed is fixed,
// so which runs explore is deterministic; measured times only decide how
// good each executor looks, and on a chain that ordering is not close.
func TestOnlineTuningConvergesOnChain(t *testing.T) {
	const n, workers, truthReps, runs = 512, 4, 3, 30
	l := tuningChainLoop(n)

	// Ground truth: best executor-phase time of each contested executor.
	truthOf := func(kind doacross.ExecutorKind) int64 {
		rt, err := doacross.New(n, doacross.WithWorkers(workers), doacross.WithExecutor(kind))
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		y := make([]float64, n)
		best := int64(0)
		for rep := 0; rep < truthReps; rep++ {
			r, err := rt.Run(context.Background(), l, y)
			if err != nil {
				t.Fatal(err)
			}
			if ns := r.ExecTime.Nanoseconds(); best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	daNs, wfNs := truthOf(doacross.Doacross), truthOf(doacross.Wavefront)
	bestName, worstName := "doacross", "wavefront"
	if wfNs < daNs {
		bestName, worstName = "wavefront", "doacross"
	}
	lo, hi := daNs, wfNs
	if hi < lo {
		lo, hi = hi, lo
	}
	t.Logf("chain ground truth (best of %d): doacross=%v wavefront=%v", truthReps,
		time.Duration(daNs), time.Duration(wfNs))
	if hi < 3*lo {
		t.Skipf("executor margin on this host is only %.2fx; the flip assertion needs a decisive winner", float64(hi)/float64(lo))
	}

	// Seed 5 explores at runs 3, 20 and 27 (one Float64 draw per decision):
	// run 0 is greedy — the misled model's pick — and the first exploration
	// arrives early enough to escape the wrong arm's lock-in within budget.
	// (Lock-in is real: once the mispriced arm has a measured average, the
	// other arm's model prediction — computed from the same wrong
	// coefficients — looks even worse, so greedy alone would never leave.)
	rt, err := doacross.New(n,
		doacross.WithWorkers(workers),
		doacross.WithExecutor(doacross.Auto),
		doacross.WithOnlineTuning(doacross.TuningOptions{
			InitialCosts: misledToward(worstName),
			Seed:         5,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	y := make([]float64, n)

	type decision struct {
		executor string
		explored bool
	}
	var hist []decision
	for r := 0; r < runs; r++ {
		rep, err := rt.Run(context.Background(), l, y)
		if err != nil {
			t.Fatal(err)
		}
		hist = append(hist, decision{rep.Executor, rep.Explored})
	}

	if hist[0].explored {
		t.Fatalf("run 0 explored; the seed is meant to make it a greedy decision")
	}
	if hist[0].executor != worstName {
		t.Fatalf("run 0 picked %q; the wrong seed coefficients should mislead the model into %q", hist[0].executor, worstName)
	}

	// Converged-at: the first run from which every greedy decision picked
	// the measured-best executor (explorations are deliberate detours and
	// excluded).
	converged := -1
	for i := len(hist) - 1; i >= 0; i-- {
		if !hist[i].explored && hist[i].executor != bestName {
			break
		}
		if !hist[i].explored {
			converged = i
		}
	}
	if converged < 0 {
		t.Fatalf("tuner never settled on %q: %+v", bestName, hist)
	}
	if converged > runs/2 {
		t.Errorf("tuner settled only at run %d of %d", converged, runs)
	}
	greedyAfter := 0
	for _, d := range hist[converged:] {
		if !d.explored {
			greedyAfter++
		}
	}
	if greedyAfter < 5 {
		t.Errorf("only %d greedy runs after convergence; the stay-converged evidence is too thin", greedyAfter)
	}

	snap := rt.TuningSnapshot()
	if len(snap.Plans) != 1 {
		t.Fatalf("tuner tracks %d plans, want 1", len(snap.Plans))
	}
	p := snap.Plans[0]
	if p.Doacross.Observations == 0 || p.Wavefront.Observations == 0 {
		t.Fatalf("both contested arms should have been measured: %+v", p)
	}
	emaBest, emaWorst := p.Doacross.EMANs, p.Wavefront.EMANs
	if bestName == "wavefront" {
		emaBest, emaWorst = emaWorst, emaBest
	}
	if emaBest >= emaWorst {
		t.Errorf("measured averages contradict the ground truth: %s %v >= %s %v",
			bestName, emaBest, worstName, emaWorst)
	}

	// The simulator predicts the same trajectory shape: feeding the measured
	// averages in as ground truth, SimulateTuning with the same seed and seed
	// coefficients must converge to the same arm within the same budget.
	st, err := rt.Inspect(l)
	if err != nil {
		t.Fatal(err)
	}
	truth := machine.TuningTruth{DoacrossNs: p.Doacross.EMANs, WavefrontNs: p.Wavefront.EMANs}
	traj := machine.SimulateTuning(truth, st, workers, 1, runs,
		tune.Options{InitialCosts: misledToward(worstName), Seed: 5})
	wantArm := tune.Doacross
	if bestName == "wavefront" {
		wantArm = tune.Wavefront
	}
	if best := truth.BestArm(); best != wantArm {
		t.Fatalf("simulator best arm = %d under the measured truth, want %d", best, wantArm)
	}
	if traj.ConvergedAt < 0 || traj.ConvergedAt > runs/2 {
		t.Errorf("simulator trajectory converged at %d, live tuner at %d — they should agree within the budget",
			traj.ConvergedAt, converged)
	}
}

// TestOnlineTuningSPE2Trisolve is the convergence acceptance test on the
// paper's workload: forward substitution on the SPE2 factor. The executor
// margins on SPE2 are thin and machine-dependent, so the test measures its
// own ground truth — each executor's best time over fixed-executor runs —
// and makes relaxed assertions: the tuned runtime must explore beyond its
// deliberately mispriced seed, and whatever executor it settles on must have
// a measured average within 1.5x of the truly fastest executor's time (a
// tuner stuck on a catastrophic pick fails; close seconds among near-ties
// pass).
func TestOnlineTuningSPE2Trisolve(t *testing.T) {
	const workers, truthReps, runs = 2, 6, 40
	lf, _, err := stencil.LowerFactor(stencil.SPE2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := stencil.RHS(lf.N, 7)
	loop, err := doacross.TrisolveLoop(lf, rhs)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: best executor-phase time of each fixed executor.
	bestNs := map[doacross.ExecutorKind]int64{}
	for _, kind := range []doacross.ExecutorKind{doacross.Doacross, doacross.Wavefront, doacross.WavefrontDynamic} {
		rt, err := doacross.New(lf.N, doacross.WithWorkers(workers), doacross.WithExecutor(kind))
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, lf.N)
		for rep := 0; rep < truthReps; rep++ {
			copy(y, rhs)
			r, err := rt.Run(context.Background(), loop, y)
			if err != nil {
				rt.Close()
				t.Fatal(err)
			}
			if ns := r.ExecTime.Nanoseconds(); bestNs[kind] == 0 || ns < bestNs[kind] {
				bestNs[kind] = ns
			}
		}
		rt.Close()
	}
	fastest := bestNs[doacross.Doacross]
	for _, ns := range bestNs {
		if ns < fastest {
			fastest = ns
		}
	}
	t.Logf("SPE2 ground truth (best of %d): doacross=%v wavefront=%v dynamic=%v",
		truthReps,
		time.Duration(bestNs[doacross.Doacross]),
		time.Duration(bestNs[doacross.Wavefront]),
		time.Duration(bestNs[doacross.WavefrontDynamic]))

	// The tuned runtime starts from coefficients that price barriers
	// catastrophically, pinning the seed pick to the busy-wait doacross;
	// measured feedback and exploration must take over from there. Seed 6
	// explores early (runs 2, 3, 8, ...), so all three arms get measured.
	rt, err := doacross.New(lf.N,
		doacross.WithWorkers(workers),
		doacross.WithExecutor(doacross.Auto),
		doacross.WithOnlineTuning(doacross.TuningOptions{
			InitialCosts: doacross.AutoCosts{BarrierNs: 1e6, FlagCheckNs: 0.01, ClaimNs: 25},
			Seed:         6,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	y := make([]float64, lf.N)
	lastGreedy := ""
	for r := 0; r < runs; r++ {
		copy(y, rhs)
		rep, err := rt.Run(context.Background(), loop, y)
		if err != nil {
			t.Fatal(err)
		}
		if r == 0 && rep.Executor != "doacross" {
			t.Fatalf("run 0 picked %q; the seed coefficients should pin it to doacross", rep.Executor)
		}
		if !rep.Explored {
			lastGreedy = rep.Executor
		}
	}
	snap := rt.TuningSnapshot()
	if len(snap.Plans) != 1 {
		t.Fatalf("tuner tracks %d plans, want 1", len(snap.Plans))
	}
	p := snap.Plans[0]
	observedArms := 0
	for _, arm := range []doacross.TuningArm{p.Doacross, p.Wavefront, p.WavefrontDynamic} {
		if arm.Observations > 0 {
			observedArms++
		}
	}
	if observedArms < 3 {
		t.Errorf("exploration measured only %d of 3 executors: %+v", observedArms, p)
	}

	settled := map[string]doacross.TuningArm{
		"doacross":          p.Doacross,
		"wavefront":         p.Wavefront,
		"wavefront-dynamic": p.WavefrontDynamic,
	}[lastGreedy]
	if settled.Observations == 0 {
		t.Fatalf("settled executor %q was never observed: %+v", lastGreedy, p)
	}
	if limit := 1.5 * float64(fastest); settled.EMANs > limit {
		t.Errorf("tuner settled on %q with measured average %v, more than 1.5x the fastest executor's %v",
			lastGreedy, time.Duration(int64(settled.EMANs)), time.Duration(fastest))
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
		{InitialCosts: doacross.AutoCosts{BarrierNs: -1, FlagCheckNs: 5}},
		{InitialCosts: doacross.AutoCosts{BarrierNs: 100}}, // missing flag cost
		{InitialCosts: doacross.AutoCosts{BarrierNs: 100, FlagCheckNs: 5, ClaimNs: -2}},
		{InitialCosts: doacross.AutoCosts{BarrierNs: math.NaN(), FlagCheckNs: 5}},
		{InitialCosts: doacross.AutoCosts{BarrierNs: math.Inf(1), FlagCheckNs: 5}},
		{InitialCosts: doacross.AutoCosts{BarrierNs: 100, FlagCheckNs: 5, ClaimNs: math.NaN()}},
		{InitialCosts: doacross.AutoCosts{BarrierNs: 100, FlagCheckNs: 5, IterNs: math.Inf(1)}},
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
