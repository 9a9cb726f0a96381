package tune

import (
	"math"
	"testing"
)

// chainStats is a serial chain of n iterations: n levels of width 1, one
// distance-1 edge per consumer — the doacross-friendly, barrier-hostile
// shape the convergence suites lean on.
func chainStats(n, p int) Stats {
	claims := 0
	for l := 0; l < n; l++ {
		claims += 1 + p
	}
	return Stats{
		Iterations:      n,
		Edges:           n - 1,
		StallWeight:     float64(n-1) * float64(p-1) / float64(p),
		Levels:          n,
		CriticalPathLen: n,
		ScheduleRounds:  n,
		DynamicClaims:   claims,
	}
}

// wideStats is a doall-like shape: few levels, wide ones.
func wideStats(n, levels, p int) Stats {
	w := n / levels
	rounds := 0
	claims := 0
	for l := 0; l < levels; l++ {
		rounds += (w + p - 1) / p
		claims += (w+15)/16 + p
	}
	return Stats{
		Iterations:      n,
		Edges:           n - w,
		Levels:          levels,
		CriticalPathLen: levels,
		ScheduleRounds:  rounds,
		DynamicClaims:   claims,
	}
}

func TestSanitizeFloorsAndFinite(t *testing.T) {
	c := Sanitize(Coeffs{BarrierNs: math.NaN(), FlagCheckNs: -4, ClaimNs: math.Inf(1), IterNs: -1})
	if c.BarrierNs != minCoeff || c.FlagCheckNs != minCoeff || c.ClaimNs != minCoeff {
		t.Fatalf("overhead coefficients not floored: %+v", c)
	}
	if c.IterNs != 0 {
		t.Fatalf("iter not reset to zero: %+v", c)
	}
}

// TestObserveFirstSampleInitializes: the first observation sets the average
// outright instead of decaying from zero.
func TestObserveFirstSampleInitializes(t *testing.T) {
	s := NewPlanState(Coeffs{BarrierNs: 100, FlagCheckNs: 5, ClaimNs: 25})
	st := chainStats(256, 4)
	s.Observe(Doacross, st, 4, 1, 5e5)
	if s.ObsNs[Doacross] != 5e5 || s.Obs[Doacross] != 1 || s.Runs != 1 {
		t.Fatalf("first sample not initialized: %+v", s)
	}
}

// TestObserveCapsOutlierSample: one sample far above an arm's average — a
// run the host descheduled for a scheduler tick — lifts the average by at
// most DefaultAlpha*(maxSampleRatio-1) and does not flip a greedy decision over a
// runner-up 20% behind, while a sustained slowdown still overtakes it.
func TestObserveCapsOutlierSample(t *testing.T) {
	st := chainStats(256, 4)
	o := Options{Epsilon: -1}
	s := NewPlanState(Coeffs{BarrierNs: 100, FlagCheckNs: 5, ClaimNs: 25})
	s.Observe(Doacross, st, 4, 1, 300e3)
	s.Observe(Wavefront, st, 4, 1, 360e3)
	s.Observe(WavefrontDynamic, st, 4, 1, 400e3)
	s.Observe(Doacross, st, 4, 1, 4.3e6)
	if want := 300e3 * (1 + DefaultAlpha*(maxSampleRatio-1)); s.ObsNs[Doacross] != want {
		t.Fatalf("average after one outlier = %g, want %g", s.ObsNs[Doacross], want)
	}
	if pick, _ := s.Decide(st, 4, 1, o, nil); pick != Doacross {
		t.Fatalf("one outlier flipped the greedy pick to %s", ExecutorName(pick))
	}
	for k := 1; ; k++ {
		s.Observe(Doacross, st, 4, 1, 3e6)
		if pick, _ := s.Decide(st, 4, 1, o, nil); pick != Doacross {
			break
		}
		if k == 4 {
			t.Fatalf("a sustained 10x slowdown kept doacross picked for %d runs (average %g)", k, s.ObsNs[Doacross])
		}
	}

	// A zero first sample leaves no average to cap against: later samples
	// are absorbed whole rather than pinned at zero.
	z := NewPlanState(Coeffs{BarrierNs: 100, FlagCheckNs: 5, ClaimNs: 25})
	z.Observe(Wavefront, st, 4, 1, 0)
	z.Observe(Wavefront, st, 4, 1, 1000)
	if got := z.ObsNs[Wavefront]; got != DefaultAlpha*1000 {
		t.Fatalf("average after a zero first sample = %g, want %g", got, DefaultAlpha*1000)
	}
}

// TestCalibrateRecoversInjectedIterNs: observations generated by the model
// itself with a hidden IterNs are back-solved to that IterNs, whatever arm
// produced them, and the tuned prediction converges to the truth.
func TestCalibrateRecoversInjectedIterNs(t *testing.T) {
	const trueIter = 750.0
	base := Coeffs{BarrierNs: 900, FlagCheckNs: 6, ClaimNs: 30}
	truthC := base
	truthC.IterNs = trueIter
	for _, st := range []Stats{chainStats(512, 4), wideStats(2048, 16, 4)} {
		truth := truthC.PredictN(st, 4, 1)
		for arm := 0; arm < NumExecutors; arm++ {
			s := NewPlanState(base)
			for k := 0; k < 40; k++ {
				s.Observe(arm, st, 4, 1, truth[arm])
			}
			got := s.Coeffs.IterNs
			if math.Abs(got-trueIter) > 0.05*trueIter {
				t.Fatalf("arm %s: IterNs %.2f, want within 5%% of %.2f", ExecutorName(arm), got, trueIter)
			}
		}
	}
}

// TestCalibrateCorrectsOverpricedOverheads: when the observation is cheaper
// than the pure overhead prediction, the arm's dominant overhead coefficient
// comes down instead of IterNs going negative.
func TestCalibrateCorrectsOverpricedOverheads(t *testing.T) {
	st := chainStats(512, 4)
	// Grossly overpriced flag checks: the doacross observation is far below
	// the overhead-only prediction.
	s := NewPlanState(Coeffs{BarrierNs: 10, FlagCheckNs: 5000, ClaimNs: 30})
	obs := s.Coeffs.PredictN(st, 4, 1)[Doacross] / 100
	for k := 0; k < 30; k++ {
		s.Observe(Doacross, st, 4, 1, obs)
	}
	if s.Coeffs.FlagCheckNs >= 5000*0.1 {
		t.Fatalf("FlagCheckNs not corrected downward: %.1f", s.Coeffs.FlagCheckNs)
	}
	if s.Coeffs.IterNs != 0 {
		t.Fatalf("IterNs not held at zero in the overhead regime: %g", s.Coeffs.IterNs)
	}
	got := s.Coeffs.PredictN(st, 4, 1)[Doacross]
	if math.Abs(got-obs) > 0.05*obs {
		t.Fatalf("tuned doacross prediction %.1f, want within 5%% of %.1f", got, obs)
	}

	// Grossly overpriced barriers: the wavefront observation corrects
	// BarrierNs.
	s = NewPlanState(Coeffs{BarrierNs: 1e6, FlagCheckNs: 5, ClaimNs: 30})
	obs = s.Coeffs.PredictN(st, 4, 1)[Wavefront] / 1000
	for k := 0; k < 40; k++ {
		s.Observe(Wavefront, st, 4, 1, obs)
	}
	if s.Coeffs.BarrierNs >= 1e6*0.01 {
		t.Fatalf("BarrierNs not corrected downward: %.1f", s.Coeffs.BarrierNs)
	}
}

// TestDecideGreedyPrefersMeasuredOverModel: once an arm is observed, its
// measured average replaces the model estimate in the comparison.
func TestDecideGreedyPrefersMeasuredOverModel(t *testing.T) {
	st := chainStats(256, 4)
	// Model says wavefront is nearly free and doacross is terrible; claims
	// priced at a millisecond keep the dynamic arm out of the measured flip.
	s := NewPlanState(Coeffs{BarrierNs: minCoeff, FlagCheckNs: 5000, ClaimNs: 1e6})
	pick, explored := s.Decide(st, 4, 1, Options{Epsilon: -1}, nil)
	if pick != Wavefront || explored {
		t.Fatalf("initial pick = %s (explored=%v), want wavefront", ExecutorName(pick), explored)
	}
	// Reality: the wavefront measures far slower than the doacross's model
	// estimate once observed.
	s.Observe(Wavefront, st, 4, 1, 10*s.Coeffs.PredictN(st, 4, 1)[Doacross])
	pick, _ = s.Decide(st, 4, 1, Options{Epsilon: -1}, nil)
	if pick != Doacross {
		t.Fatalf("post-observation pick = %s, want doacross", ExecutorName(pick))
	}
}

// TestDecideExplorationIsDeterministic: the same seed yields the same
// exploration sequence, and explored picks target the least-observed other
// arm.
func TestDecideExplorationIsDeterministic(t *testing.T) {
	st := wideStats(1024, 8, 4)
	run := func() []int {
		s := NewPlanState(Coeffs{BarrierNs: 100, FlagCheckNs: 5, ClaimNs: 25})
		rng := NewRNG(7)
		picks := make([]int, 0, 64)
		for k := 0; k < 64; k++ {
			pick, _ := s.Decide(st, 4, 1, Options{Epsilon: 0.25, Seed: 7}, rng)
			picks = append(picks, pick)
			s.Observe(pick, st, 4, 1, 1e4+float64(pick)*1e3)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d differs across identical replays: %d vs %d", i, a[i], b[i])
		}
	}
	distinct := map[int]bool{}
	for _, p := range a {
		distinct[p] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("exploration never sampled a second arm in 64 runs: %v", a)
	}
}

// TestDecideNeverExploresWhenDisabled: a negative Epsilon (or nil RNG) is
// pure greedy.
func TestDecideNeverExploresWhenDisabled(t *testing.T) {
	st := chainStats(128, 2)
	s := NewPlanState(Coeffs{BarrierNs: 100, FlagCheckNs: 5, ClaimNs: 25})
	rng := NewRNG(3)
	for k := 0; k < 100; k++ {
		if _, explored := s.Decide(st, 2, 1, Options{Epsilon: -1}, rng); explored {
			t.Fatalf("explored with exploration disabled")
		}
		if _, explored := s.Decide(st, 2, 1, Options{Epsilon: 0.5}, nil); explored {
			t.Fatalf("explored with a nil RNG")
		}
	}
	if s.Explorations != 0 {
		t.Fatalf("exploration counter moved: %d", s.Explorations)
	}
}

// coeffsOK asserts the fuzz invariant: finite coefficients, the three
// overhead coefficients at least minCoeff, a non-negative IterNs, finite
// non-negative averages.
func coeffsOK(t *testing.T, s *PlanState) {
	t.Helper()
	c := s.Coeffs
	for _, v := range []float64{c.BarrierNs, c.FlagCheckNs, c.ClaimNs, c.IterNs} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite coefficient: %+v", c)
		}
	}
	if c.BarrierNs < minCoeff || c.FlagCheckNs < minCoeff || c.ClaimNs < minCoeff {
		t.Fatalf("overhead coefficient under floor: %+v", c)
	}
	if c.IterNs < 0 {
		t.Fatalf("negative coefficient: %+v", c)
	}
	for e := 0; e < NumExecutors; e++ {
		if math.IsNaN(s.ObsNs[e]) || math.IsInf(s.ObsNs[e], 0) || s.ObsNs[e] < 0 {
			t.Fatalf("bad moving average for %s: %g", ExecutorName(e), s.ObsNs[e])
		}
	}
}

// FuzzTunerUpdate drives the EMA state machine with arbitrary observation
// sequences — hostile seeds, hostile stats, hostile samples — and asserts it
// never produces NaN, infinite or negative coefficients, and never loses the
// overhead-coefficient floors the decision layer depends on.
func FuzzTunerUpdate(f *testing.F) {
	f.Add(uint64(1), 900.0, 6.0, 30.0, 0.0, int64(512), int64(511), int64(64), 250000.0)
	f.Add(uint64(7), -1.0, 0.0, -5.0, 1e18, int64(3), int64(0), int64(1), 1e300)
	f.Add(uint64(42), 1e-9, 1e12, 0.25, 5.0, int64(100000), int64(99999), int64(100000), 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, barrier, flag, claim, iter float64, n, edges, levels int64, baseObs float64) {
		s := NewPlanState(Coeffs{BarrierNs: barrier, FlagCheckNs: flag, ClaimNs: claim, IterNs: iter})
		coeffsOK(t, &s)
		const mod = 1 << 20
		st := Stats{
			Iterations:      int(((n % mod) + mod) % mod),
			Edges:           int(((edges % mod) + mod) % mod),
			Levels:          int(((levels % mod) + mod) % mod),
			CriticalPathLen: int(((levels % mod) + mod) % mod),
			StallWeight:     float64(edges % 1000),
			ReadImbalance:   float64(n % 1000),
		}
		rng := NewRNG(seed)
		opts := Options{Seed: seed}
		for k := 0; k < 50; k++ {
			pick, _ := s.Decide(st, int(seed%9), 1+int(seed%5), opts, rng)
			obs := baseObs
			switch rng.Uint64() % 4 {
			case 0:
				obs = math.NaN()
			case 1:
				obs = math.Inf(1)
			case 2:
				obs = -obs
			}
			s.Observe(pick, st, int(seed%9), 1+int(seed%5), obs)
			// Also hammer arms the bandit did not pick.
			s.Observe(int(rng.Uint64()%5)-1, st, 3, 1, baseObs/(float64(k)+0.5))
			coeffsOK(t, &s)
		}
	})
}
