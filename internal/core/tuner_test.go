package core

import (
	"errors"
	"reflect"
	"testing"
)

// tunedChainOptions returns Auto options with online tuning enabled and
// deterministic seed coefficients (no self-calibration probe, no timing
// dependence in the decision seed).
func tunedChainOptions(workers int) Options {
	return Options{
		Workers:  workers,
		Executor: ExecAuto,
		Tuning: &TuningOptions{
			InitialCosts: AutoCosts{BarrierNs: 400, FlagCheckNs: 30, ClaimNs: 25, IterNs: 50},
			Seed:         11,
		},
	}
}

// TestTuningObservationCounts checks the feedback plumbing end to end: every
// successful tuned Auto run lands exactly one observation in the plan's
// tuner state, the aggregate counters, and the TuningSink — and the report
// carries the post-run tuned coefficients.
func TestTuningObservationCounts(t *testing.T) {
	const n, runs = 96, 12
	c := NewMetricsCollector()
	opts := tunedChainOptions(2)
	opts.Metrics = c
	rt := NewRuntime(n, opts)
	defer rt.Close()
	l := chainLoop(n)
	y := make([]float64, n)

	var explored uint64
	for r := 0; r < runs; r++ {
		rep, err := rt.Run(l, y)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.TunedCosts.Valid() {
			t.Fatalf("run %d: report carries no tuned coefficients: %+v", r, rep.TunedCosts)
		}
		if rep.Explored {
			explored++
		}
	}

	snap := rt.TuningSnapshot()
	if snap.Observations != runs {
		t.Errorf("tuner observed %d runs, want %d", snap.Observations, runs)
	}
	if snap.Explorations != explored {
		t.Errorf("tuner explorations = %d, reports say %d", snap.Explorations, explored)
	}
	if len(snap.Plans) != 1 {
		t.Fatalf("tuner tracks %d plans, want 1", len(snap.Plans))
	}
	p := snap.Plans[0]
	if p.Runs != runs {
		t.Errorf("plan observed %d runs, want %d", p.Runs, runs)
	}
	if got := p.Doacross.Observations + p.Wavefront.Observations + p.WavefrontDynamic.Observations; got != runs {
		t.Errorf("per-arm observations sum to %d, want %d", got, runs)
	}
	ms := c.Snapshot()
	if ms.TuningObservations != runs || ms.TuningExplorations != explored {
		t.Errorf("collector saw %d/%d tuning events, want %d/%d",
			ms.TuningObservations, ms.TuningExplorations, runs, explored)
	}
}

// TestTuningFrozenByAutoCosts is the freeze contract: pinning Options.AutoCosts
// declares the coefficients known, so a configured tuner never creates or
// updates plan state — its snapshot is byte-identical across any number of
// runs, and reports carry no tuned coefficients.
func TestTuningFrozenByAutoCosts(t *testing.T) {
	const n = 64
	opts := tunedChainOptions(2)
	opts.AutoCosts = AutoCosts{BarrierNs: 1000, FlagCheckNs: 5, ClaimNs: 25, IterNs: 80}
	rt := NewRuntime(n, opts)
	defer rt.Close()
	l := chainLoop(n)
	y := make([]float64, n)

	before := rt.TuningSnapshot()
	for r := 0; r < 6; r++ {
		rep, err := rt.Run(l, y)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TunedCosts.Valid() || rep.Explored {
			t.Fatalf("frozen tuner stamped the report: %+v explored=%v", rep.TunedCosts, rep.Explored)
		}
		if after := rt.TuningSnapshot(); !reflect.DeepEqual(before, after) {
			t.Fatalf("frozen tuner state changed after run %d:\nbefore %+v\nafter  %+v", r, before, after)
		}
	}
}

// TestTuningSkipsSingleLevelLoops checks the degenerate case: a fully
// independent loop has one level and no executor decision worth learning, so
// the tuner is bypassed entirely.
func TestTuningSkipsSingleLevelLoops(t *testing.T) {
	const n = 48
	rt := NewRuntime(2*n, tunedChainOptions(2))
	defer rt.Close()
	l := &Loop{
		N:      n,
		Data:   2 * n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return []int{n + i} }, // untouched elements
		Body:   func(i int, v *Values) { v.Store(i, v.Load(n+i)+1) },
	}
	y := make([]float64, 2*n)
	for r := 0; r < 3; r++ {
		rep, err := rt.Run(l, y)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Levels > 1 {
			t.Fatalf("expected a single-level plan, got %d levels", rep.Levels)
		}
	}
	if snap := rt.TuningSnapshot(); snap.Observations != 0 || len(snap.Plans) != 0 {
		t.Errorf("single-level runs reached the tuner: %+v", snap)
	}
}

// TestTuningDiscardsFailedRuns checks that an aborted run's pending
// observation is dropped instead of polluting the calibration with a time
// that measured the failure, and that the next successful run observes
// normally.
func TestTuningDiscardsFailedRuns(t *testing.T) {
	const n = 64
	rt := NewRuntime(n, tunedChainOptions(2))
	defer rt.Close()
	y := make([]float64, n)

	failing := chainLoop(n)
	failing.Body = nil
	failing.BodyErr = func(i int, v *Values) error {
		if i == n/2 {
			return errors.New("boom")
		}
		v.Store(i, 1)
		return nil
	}
	if _, err := rt.Run(failing, y); err == nil {
		t.Fatal("expected the body error to surface")
	}
	if snap := rt.TuningSnapshot(); snap.Observations != 0 {
		t.Fatalf("failed run was observed: %+v", snap)
	}
	if _, err := rt.Run(chainLoop(n), y); err != nil {
		t.Fatal(err)
	}
	if snap := rt.TuningSnapshot(); snap.Observations != 1 {
		t.Errorf("tuner observed %d runs after one success, want 1", snap.Observations)
	}
}

// TestTuningFingerprintSurvivesRepair checks the tuner key outlives an
// in-place plan repair: the repaired plan keeps accumulating observations
// under the same fingerprint instead of starting a fresh calibration.
func TestTuningFingerprintSurvivesRepair(t *testing.T) {
	const n = 64
	reads := make([]int, n)
	for i := range reads {
		if i > 0 {
			reads[i] = i - 1
		}
	}
	l := &Loop{
		N:      n,
		Data:   n,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			if i == 0 {
				return nil
			}
			return reads[i : i+1]
		},
		Body: func(i int, v *Values) {
			if i == 0 {
				v.Store(i, 1)
				return
			}
			v.Store(i, v.Load(reads[i])+1)
		},
	}
	rt := NewRuntime(n, tunedChainOptions(2))
	defer rt.Close()
	y := make([]float64, n)

	for r := 0; r < 4; r++ {
		if _, err := rt.Run(l, y); err != nil {
			t.Fatal(err)
		}
	}
	// Repoint one iteration's dependency and repair the cached plan in place.
	reads[n/2] = n/2 - 2
	rep, err := rt.RepairPlans(l, EditSet{Iters: []int{n / 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired {
		t.Fatalf("expected an in-place repair, got fallback: %+v", rep)
	}
	if _, err := rt.Run(l, y); err != nil {
		t.Fatal(err)
	}
	snap := rt.TuningSnapshot()
	if len(snap.Plans) != 1 {
		t.Fatalf("repair forked the tuner state into %d plans, want 1", len(snap.Plans))
	}
	if snap.Plans[0].Runs != 5 {
		t.Errorf("plan observed %d runs across the repair, want 5", snap.Plans[0].Runs)
	}
}

// BenchmarkTuningOff and BenchmarkTuningOn bound the tuner's cost: with no
// tuner configured the per-run overhead is a nil test on the pending
// observation, so TuningOff must sit within noise of the pre-tuning Auto
// baseline. Compare with benchstat, or eyeball the ns/op in CI logs.
func BenchmarkTuningOff(b *testing.B) { benchTuning(b, nil) }
func BenchmarkTuningOn(b *testing.B) {
	benchTuning(b, &TuningOptions{
		InitialCosts: AutoCosts{BarrierNs: 400, FlagCheckNs: 30, ClaimNs: 25, IterNs: 50},
		Seed:         11,
	})
}

func benchTuning(b *testing.B, tn *TuningOptions) {
	rt := NewRuntime(256, Options{
		Workers:  2,
		Executor: ExecAuto,
		Tuning:   tn,
		// Untuned runs pin the coefficients so neither variant pays the
		// self-calibration probe; the tuned variant seeds from
		// TuningOptions.InitialCosts instead and keeps learning.
		AutoCosts: func() AutoCosts {
			if tn != nil {
				return AutoCosts{}
			}
			return AutoCosts{BarrierNs: 400, FlagCheckNs: 30, ClaimNs: 25, IterNs: 50}
		}(),
	})
	defer rt.Close()
	l := chainLoop(256)
	y := make([]float64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(l, y); err != nil {
			b.Fatal(err)
		}
	}
}
