// Package tune is the host cost model behind the runtime's Auto executor
// selection, and the pure state machine that calibrates it online.
//
// The model half (model.go) is the only definition of the cost-model
// coefficients (Coeffs), the inspection statistics they price (Stats), the
// per-executor time estimate (Coeffs.PredictN), the selection rule
// (Coeffs.Choose, over the one argmin Best) and the incremental-repair gate
// (BreakEvenCone). core and the public facade alias these types, so the live
// selection, doastat's offline report and the paper tables all evaluate the
// same arithmetic.
//
// The tuning half is per-plan exponential-moving-average observations of
// measured executor-phase times, a back-solver that re-calibrates the
// coefficients (IterNs first, the dominant overhead coefficient when the work
// term bottoms out) against those observations, and a small epsilon-greedy
// bandit over the three executors that occasionally re-samples a non-picked
// executor so a wrong initial pick cannot lock in.
//
// The package is deliberately a leaf: it holds no clocks, no pools and no
// runtime state, only arithmetic over observations that callers feed in. Both
// the live runtime (internal/core) and the deterministic simulator
// (internal/machine, SimulateTuning) drive the same PlanState — which is what
// guarantees the simulated convergence trajectory is the one the real tuner
// follows.
package tune

import "math"

// Executor indices of the bandit's three arms: the one enumeration of the
// executors. The cost model's estimates, the tuner's per-arm state, the
// runtime's ExecutorKind (whose fixed executors equal these indices, with
// Auto after them) and the harness's per-executor results are all indexed
// by it.
const (
	// Doacross is the flag-based busy-wait doacross.
	Doacross = iota
	// Wavefront is the static barrier-separated wavefront.
	Wavefront
	// WavefrontDynamic is the within-level self-scheduling wavefront.
	WavefrontDynamic
	// NumExecutors is the number of bandit arms.
	NumExecutors
)

// ExecutorName returns the executor's report name for an arm index.
func ExecutorName(e int) string {
	switch e {
	case Doacross:
		return "doacross"
	case Wavefront:
		return "wavefront"
	case WavefrontDynamic:
		return "wavefront-dynamic"
	default:
		return "unknown"
	}
}

// Options configures the online tuner (core and the facade alias this type
// as TuningOptions; see doacross.WithOnlineTuning). The zero value of every
// field means its default. Tuning is keyed by plan fingerprint: every loop
// shape a runtime serves calibrates independently.
type Options struct {
	// InitialCosts seeds the tuner's coefficients instead of the
	// self-calibration probe. Unlike a pinned Options.AutoCosts in core —
	// which freezes tuning — these are just the starting point the measured
	// feedback corrects, which is what the convergence tests exploit by
	// seeding deliberately wrong values. The zero value means "probe once,
	// then tune" for a live runtime; the simulator (machine.SimulateTuning),
	// which has no probe, seeds from the sanitized value as given.
	InitialCosts Coeffs
	// Epsilon is the exploration probability: the chance each decision
	// deliberately runs the least-observed non-best executor instead of the
	// best-scoring one, so a wrong initial pick cannot lock in. Zero means
	// DefaultEpsilon; negative disables exploration (pure greedy — wanted by
	// tests that must be schedule-deterministic without filtering explored
	// runs).
	Epsilon float64
	// Seed seeds the deterministic exploration RNG (splitmix64); zero means
	// 1, so the zero value is still fully deterministic. Two runtimes with
	// equal seeds, workloads and timings explore the same runs.
	Seed uint64
}

// Tuner constants. DefaultAlpha is the exponential-moving-average smoothing
// factor applied to each arm's observed executor-phase time (higher weights
// recent runs more); DefaultBlend the rate at which back-solved coefficient
// proposals are folded into the current coefficients (1 would jump straight
// to each proposal; smaller values smooth over observation noise);
// DefaultEpsilon the exploration probability a zero Options.Epsilon means.
const (
	DefaultAlpha   = 0.25
	DefaultEpsilon = 0.125
	DefaultBlend   = 0.5
)

// maxSampleRatio caps how far above an arm's moving average one observation
// can pull it: a larger sample is absorbed as exactly this multiple of the
// average. Executor-phase times carry one-sided noise — a worker the host
// deschedules for a scheduler tick turns a 300 µs solve into a 4 ms one — and
// an uncapped average lets one such run lift the winning arm past the
// runner-up, after which only a rare exploration re-measures it. Capped, one
// hiccup moves the average by at most DefaultAlpha*(maxSampleRatio-1)
// (12.5%), while a sustained slowdown is still tracked geometrically. A
// sample equal to the average, as in a fixed-truth simulation, is unaffected.
const maxSampleRatio = 1.5

// WithDefaults resolves the zero fields to the package defaults and clamps
// out-of-range values into their documented domains.
func (o Options) WithDefaults() Options {
	if o.Epsilon == 0 || math.IsNaN(o.Epsilon) {
		o.Epsilon = DefaultEpsilon
	}
	if o.Epsilon < 0 {
		o.Epsilon = 0
	}
	if o.Epsilon > 1 {
		o.Epsilon = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RNG is the tuner's deterministic exploration source: splitmix64, seeded
// once per runtime. Determinism is part of the contract — given the same
// seed and the same decision sequence, the same runs explore — so
// convergence tests and the machine-model replay see identical trajectories.
type RNG struct{ s uint64 }

// NewRNG returns a generator seeded with seed (zero is replaced by 1).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 1
	}
	return &RNG{s: seed}
}

// Uint64 returns the next value of the splitmix64 sequence.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns the next value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// PlanState is the tuner's per-plan state: the calibrated coefficients and
// one bandit arm per executor. It is keyed (by the caller) on the plan's
// structural fingerprint, so every loop shape calibrates independently — a
// heavy-bodied chain and an overhead-bound stencil sharing one runtime do
// not fight over IterNs. The zero value is not usable; construct with
// NewPlanState.
type PlanState struct {
	// Coeffs are the tuned coefficients: seeded from the runtime's base
	// (configured initial costs or the probe) and blended toward back-solved
	// observations after every completed run.
	Coeffs Coeffs
	// ObsNs is each arm's exponential moving average of observed
	// executor-phase nanoseconds; valid only where Obs is non-zero (the
	// first observation initializes the average rather than decaying from
	// zero).
	ObsNs [NumExecutors]float64
	// Obs counts the completed runs observed per arm.
	Obs [NumExecutors]uint64
	// Runs is the total observation count (the sum of Obs).
	Runs uint64
	// Explorations counts the decisions where the bandit deliberately ran a
	// non-best executor.
	Explorations uint64
}

// NewPlanState seeds a plan's tuner state with the base coefficients.
func NewPlanState(base Coeffs) PlanState {
	return PlanState{Coeffs: Sanitize(base)}
}

// Decide picks the executor for the next run: the arm with the lowest score
// — measured average where the arm has been observed, the tuned model's
// prediction where it has not — or, with probability Epsilon, the
// least-observed other arm (explored reports that case, so callers can mark
// the run and tests can filter it). rng may be nil, which disables
// exploration like a negative Epsilon.
func (s *PlanState) Decide(st Stats, workers, nrhs int, o Options, rng *RNG) (pick int, explored bool) {
	o = o.WithDefaults()
	score := s.Coeffs.PredictN(st, workers, nrhs)
	for e := 0; e < NumExecutors; e++ {
		if s.Obs[e] > 0 {
			score[e] = s.ObsNs[e]
		}
	}
	pick = Best(score)
	if o.Epsilon > 0 && rng != nil && rng.Float64() < o.Epsilon {
		cand := -1
		for e := 0; e < NumExecutors; e++ {
			if e != pick && (cand < 0 || s.Obs[e] < s.Obs[cand]) {
				cand = e
			}
		}
		s.Explorations++
		return cand, true
	}
	return pick, false
}

// Observe feeds one completed run back in: observedNs is the measured
// executor-phase time of the executor that ran (arm exec), for the loop
// shape st at the given worker count and block width. The arm's moving
// average absorbs the sample, capped at maxSampleRatio times the average
// once the arm has one, and the coefficients are re-calibrated against
// the updated average (see calibrate). Non-finite or negative samples and
// out-of-range arms are ignored.
func (s *PlanState) Observe(exec int, st Stats, workers, nrhs int, observedNs float64) {
	if exec < 0 || exec >= NumExecutors {
		return
	}
	if math.IsNaN(observedNs) || math.IsInf(observedNs, 0) || observedNs < 0 {
		return
	}
	if s.Obs[exec] == 0 {
		s.ObsNs[exec] = observedNs
	} else {
		if limit := maxSampleRatio * s.ObsNs[exec]; limit > 0 && observedNs > limit {
			observedNs = limit
		}
		s.ObsNs[exec] += DefaultAlpha * (observedNs - s.ObsNs[exec])
	}
	s.Obs[exec]++
	s.Runs++
	s.calibrate(exec, st, workers, nrhs)
}

// blendTo moves *field toward the proposal at DefaultBlend.
func blendTo(field *float64, proposal float64) {
	*field += DefaultBlend * (proposal - *field)
}

// calibrate back-solves the cost model against the observed arm's moving
// average and blends the coefficients toward the solution. The per-iteration
// work term IterNs — the coefficient the calibration probe cannot measure —
// is solved first, holding the overhead coefficients fixed; when the
// observation is cheaper than the pure overhead prediction (the back-solved
// IterNs clamps negative), the work term drops to zero and the arm's
// dominant overhead coefficient is solved instead (FlagCheckNs for the
// doacross, BarrierNs for the static wavefront, ClaimNs for the dynamic), so
// a grossly mispriced probe corrects in either direction. Every update is
// blended (DefaultBlend) and sanitized, preserving the coefficient
// invariants whatever the sample.
func (s *PlanState) calibrate(exec int, st Stats, workers, nrhs int) {
	t, ok := modelTerms(st, workers)
	if !ok {
		return
	}
	if nrhs < 1 {
		nrhs = 1
	}
	nf := float64(nrhs)
	obs := s.ObsNs[exec]
	c := s.Coeffs
	switch exec {
	case Doacross:
		denom := t.daRounds * nf
		if denom <= 0 {
			return
		}
		iter := (obs - t.daRounds*(t.r+3)*c.FlagCheckNs) / denom
		if iter >= 0 {
			blendTo(&c.IterNs, iter)
		} else {
			blendTo(&c.IterNs, 0)
			if fd := t.daRounds * (t.r + 3); fd > 0 {
				blendTo(&c.FlagCheckNs, obs/fd)
			}
		}
	case Wavefront:
		denom := nf * (t.wfRounds + t.imb/(t.r+1))
		if denom <= 0 {
			return
		}
		overhead := (t.wfRounds*t.r+t.imb)*c.FlagCheckNs + t.levels*c.BarrierNs
		iter := (obs - overhead) / denom
		if iter >= 0 {
			blendTo(&c.IterNs, iter)
		} else {
			blendTo(&c.IterNs, 0)
			if t.levels > 0 {
				blendTo(&c.BarrierNs, (obs-(t.wfRounds*t.r+t.imb)*c.FlagCheckNs)/t.levels)
			}
		}
	case WavefrontDynamic:
		denom := nf * t.wfRounds
		if denom <= 0 {
			return
		}
		overhead := t.wfRounds*t.r*c.FlagCheckNs + t.levels*c.BarrierNs + t.claims*c.ClaimNs
		iter := (obs - overhead) / denom
		if iter >= 0 {
			blendTo(&c.IterNs, iter)
		} else {
			blendTo(&c.IterNs, 0)
			if t.claims > 0 {
				blendTo(&c.ClaimNs, (obs-t.wfRounds*t.r*c.FlagCheckNs-t.levels*c.BarrierNs)/t.claims)
			}
		}
	}
	s.Coeffs = Sanitize(c)
}
