package machine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"doacross/internal/depgraph"
	"doacross/internal/sched"
	"doacross/internal/tune"
)

// tuneStatsFromGraph projects a dependency graph onto the tune package's
// shape summary the way the live inspector does: levels and critical path
// from the wavefront decomposition, static schedule rounds as the sum of
// per-level ceil splits, dynamic claims at the default chunk.
func tuneStatsFromGraph(g *depgraph.Graph, workers int) tune.Stats {
	a := g.Analyze()
	ls := g.LevelsInto(nil)
	rounds, claims := 0, 0
	for l := 0; l < ls.Count(); l++ {
		w := len(ls.LevelMembers(l))
		rounds += (w + workers - 1) / workers
		claims += sched.DynamicClaims(w, sched.DefaultChunk, workers)
	}
	return tune.Stats{
		Iterations:      a.Iterations,
		Edges:           a.Edges,
		StallWeight:     g.StallWeight(workers),
		Levels:          a.Levels,
		CriticalPathLen: a.CriticalPathLen,
		ScheduleRounds:  rounds,
		ReadImbalance:   0,
		DynamicClaims:   claims,
	}
}

// randomGraph builds a random DAG over n iterations: each iteration depends
// on up to 2 random earlier iterations with the given probability, yielding
// shapes from near-doall to deep chains as p grows.
func randomGraph(rng *rand.Rand, n int, p float64) *depgraph.Graph {
	preds := make([][]int32, n)
	for i := 1; i < n; i++ {
		for k := 0; k < 2; k++ {
			if rng.Float64() < p {
				preds[i] = append(preds[i], int32(rng.Intn(i)))
			}
		}
	}
	return depgraph.FromPreds(preds)
}

// TestSimulateTuningMatchesManualReplay pins the fidelity contract: the
// simulator is nothing but the tune package's own state machine driven in a
// loop, so a hand-driven replay with the same inputs must produce the
// identical pick sequence and byte-identical final state.
func TestSimulateTuningMatchesManualReplay(t *testing.T) {
	st := tune.Stats{Iterations: 512, Edges: 600, Levels: 24, CriticalPathLen: 24,
		ScheduleRounds: 130, DynamicClaims: 300}
	start := tune.Coeffs{BarrierNs: 900, FlagCheckNs: 45, ClaimNs: 20, IterNs: 150}
	truth := TuningTruth{DoacrossNs: 400_000, WavefrontNs: 150_000, DynamicNs: 180_000}
	o := tune.Options{InitialCosts: start, Seed: 42}
	const workers, nrhs, runs = 4, 1, 48

	traj := SimulateTuning(truth, st, workers, nrhs, runs, o)

	od := o.WithDefaults()
	rng := tune.NewRNG(od.Seed)
	ps := tune.NewPlanState(start)
	for r := 0; r < runs; r++ {
		pick, explored := ps.Decide(st, workers, nrhs, od, rng)
		if traj.Steps[r].Pick != pick || traj.Steps[r].Explored != explored {
			t.Fatalf("run %d: simulator decided (%d,%v), manual replay (%d,%v)",
				r, traj.Steps[r].Pick, traj.Steps[r].Explored, pick, explored)
		}
		var obs float64
		switch pick {
		case tune.Wavefront:
			obs = truth.WavefrontNs
		case tune.WavefrontDynamic:
			obs = truth.DynamicNs
		default:
			obs = truth.DoacrossNs
		}
		ps.Observe(pick, st, workers, nrhs, obs)
	}
	if !reflect.DeepEqual(traj.Final, ps) {
		t.Fatalf("final state diverged:\nsimulator %+v\nmanual    %+v", traj.Final, ps)
	}
}

// TestSimulateTuningConvergesFromWrongSeed is the simulator-side convergence
// acceptance: seed coefficients that make the model prefer the catastrophic
// executor must flip to the truth's best arm within the run budget and stay.
func TestSimulateTuningConvergesFromWrongSeed(t *testing.T) {
	// A deep chain: the truth says busy-wait doacross wins by 40x (the
	// wavefront pays a barrier per unit-width level), but the seed's
	// overpriced flag cost makes the model predict the opposite.
	st := tune.Stats{Iterations: 2048, Edges: 2047, Levels: 2048,
		CriticalPathLen: 2048, ScheduleRounds: 2048}
	start := tune.Coeffs{BarrierNs: 0.01, FlagCheckNs: 5000, IterNs: 100}
	truth := TuningTruth{DoacrossNs: 50_000, WavefrontNs: 2_000_000}
	const runs = 32
	if tDa, tWf, _ := tune.Sanitize(start).PredictN(st, 4, 1); tWf >= tDa {
		t.Fatalf("seed coefficients do not mislead the model: doacross %v <= wavefront %v", tDa, tWf)
	}
	traj := SimulateTuning(truth, st, 4, 1, runs, tune.Options{InitialCosts: start, Seed: 3})
	if best := truth.BestArm(); best != tune.Doacross {
		t.Fatalf("truth's best arm = %d, want doacross", best)
	}
	if traj.ConvergedAt < 0 {
		t.Fatalf("tuner never converged: %+v", traj.Steps)
	}
	if traj.ConvergedAt > runs/2 {
		t.Errorf("converged only at run %d of %d", traj.ConvergedAt, runs)
	}
	for _, s := range traj.Steps[traj.ConvergedAt:] {
		if !s.Explored && s.Pick != tune.Doacross {
			t.Fatalf("post-convergence greedy run %d picked arm %d", s.Run, s.Pick)
		}
	}
}

// TestSimulateTuningExcludesDynamicWithoutTruth checks the availability rule:
// a truth with no dynamic time zeroes the claim coefficient, so the dynamic
// arm is never run however the seed priced it.
func TestSimulateTuningExcludesDynamicWithoutTruth(t *testing.T) {
	st := tune.Stats{Iterations: 256, Edges: 300, Levels: 16, CriticalPathLen: 16,
		ScheduleRounds: 64, DynamicClaims: 100}
	start := tune.Coeffs{BarrierNs: 500, FlagCheckNs: 40, ClaimNs: 1e-9, IterNs: 100}
	truth := TuningTruth{DoacrossNs: 300_000, WavefrontNs: 120_000}
	traj := SimulateTuning(truth, st, 4, 1, 40, tune.Options{InitialCosts: start, Seed: 9})
	for _, s := range traj.Steps {
		if s.Pick == tune.WavefrontDynamic {
			t.Fatalf("run %d picked the unavailable dynamic arm", s.Run)
		}
	}
	if traj.Final.Coeffs.ClaimNs != 0 {
		t.Errorf("claim coefficient survived: %v", traj.Final.Coeffs.ClaimNs)
	}
}

// TestSimulateTuningPropertyRandomDAGs is the calibration property suite:
// over random DAG shapes and a hidden per-iteration body weight, with the
// truth generated by the cost model itself, (a) each arm's prediction error
// is monotone non-increasing over that arm's runs, (b) the hidden IterNs is
// recovered within tolerance by the end, and (c) the trajectory is
// deterministic (an identical rerun is deeply equal).
func TestSimulateTuningPropertyRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 64 + rng.Intn(512)
		g := randomGraph(rng, n, 0.2+0.6*rng.Float64())
		workers := 2 + rng.Intn(7)
		nrhs := 1 + rng.Intn(4)*rng.Intn(2)*7 // mostly 1, sometimes a block
		st := tuneStatsFromGraph(g, workers)

		trueIter := 100 + 4900*rng.Float64()
		trueCoeffs := tune.Coeffs{BarrierNs: 200, FlagCheckNs: 20, ClaimNs: 15, IterNs: trueIter}
		tDa, tWf, tDyn := trueCoeffs.PredictN(st, workers, nrhs)
		truth := TuningTruth{DoacrossNs: tDa, WavefrontNs: tWf, DynamicNs: tDyn}

		// The seed knows the overheads but not the body weight — the common
		// deployment, where the probe measured synchronization primitives but
		// the loop body is the application's.
		start := trueCoeffs
		start.IterNs = 0
		const runs = 40
		o := tune.Options{InitialCosts: start, Seed: uint64(trial + 1)}
		traj := SimulateTuning(truth, st, workers, nrhs, runs, o)

		var lastErr [tune.NumExecutors]float64
		var seen [tune.NumExecutors]bool
		for _, s := range traj.Steps {
			if seen[s.Pick] && s.ErrNs > lastErr[s.Pick]*1.001+1e-6 {
				t.Fatalf("trial %d: arm %d prediction error grew at run %d: %v after %v",
					trial, s.Pick, s.Run, s.ErrNs, lastErr[s.Pick])
			}
			seen[s.Pick], lastErr[s.Pick] = true, s.ErrNs
		}

		if got := traj.Final.Coeffs.IterNs; math.Abs(got-trueIter) > 0.2*trueIter {
			t.Errorf("trial %d: final IterNs = %v, want within 20%% of %v (n=%d workers=%d)",
				trial, got, trueIter, n, workers)
		}
		if rerun := SimulateTuning(truth, st, workers, nrhs, runs, o); !reflect.DeepEqual(traj, rerun) {
			t.Fatalf("trial %d: trajectory is not deterministic", trial)
		}
	}
}
