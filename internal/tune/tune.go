// Package tune is the pure state machine behind the runtime's online
// self-tuning Auto selection: per-plan exponential-moving-average
// observations of measured executor-phase times, a back-solver that
// re-calibrates the cost-model coefficients (IterNs first, the dominant
// overhead coefficient when the work term bottoms out) against those
// observations, and a small epsilon-greedy bandit over the three executors
// that occasionally re-samples a non-picked executor so a wrong initial pick
// cannot lock in.
//
// The package is deliberately a leaf: it holds no clocks, no pools and no
// runtime state, only arithmetic over observations that callers feed in. Both
// the live runtime (internal/core) and the deterministic simulator
// (internal/machine, SimulateTuning) drive the same PlanState — which is what
// guarantees the simulated convergence trajectory is the one the real tuner
// follows, and the cost-model formula lives here (Predict) so the two sides
// cannot drift apart.
package tune

import (
	"math"

	"doacross/internal/sched"
)

// Executor indices of the bandit's three arms. They are the tuner's own
// compact indexing (the runtime's ExecutorKind interleaves Auto); core maps
// between the two.
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

// Coeffs are the cost-model coefficients the tuner calibrates. The fields
// mirror core.AutoCosts exactly (the two types are directly convertible):
// the cost of one level-barrier rendezvous, one flag-table operation, one
// dynamic chunk claim (zero excludes the dynamic executor), and one
// iteration's useful work.
type Coeffs struct {
	BarrierNs   float64
	FlagCheckNs float64
	ClaimNs     float64
	IterNs      float64
}

// Stats are the inspection statistics the cost model consumes — the subset
// of core.InspectStats that Predict reads. See the core documentation for
// the meaning of each field.
type Stats struct {
	Iterations      int
	Edges           int
	StallWeight     float64
	Levels          int
	CriticalPathLen int
	ScheduleRounds  int
	ReadImbalance   float64
	DynamicClaims   int
}

// minCoeff is the floor kept under the calibrated BarrierNs/FlagCheckNs (and
// under a back-solved ClaimNs): the decision layer requires positive
// coefficients, and a coefficient driven to zero by a degenerate observation
// could never recover through multiplicative blending.
const minCoeff = 1e-3

// sane returns v when it is a usable coefficient value, else the fallback.
func sane(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fallback
	}
	return v
}

// Sanitize clamps the coefficients into the tuner's invariant domain:
// BarrierNs and FlagCheckNs positive (at least minCoeff), ClaimNs and IterNs
// non-negative, everything finite. It is applied to every seed and every
// blended update, so a PlanState never carries NaN, infinite or negative
// coefficients whatever observations were fed in.
func Sanitize(c Coeffs) Coeffs {
	c.BarrierNs = sane(c.BarrierNs, minCoeff)
	c.FlagCheckNs = sane(c.FlagCheckNs, minCoeff)
	c.ClaimNs = sane(c.ClaimNs, 0)
	c.IterNs = sane(c.IterNs, 0)
	if c.BarrierNs < minCoeff {
		c.BarrierNs = minCoeff
	}
	if c.FlagCheckNs < minCoeff {
		c.FlagCheckNs = minCoeff
	}
	return c
}

// terms are the structural factors of the cost model, shared by Predict and
// the back-solver so a calibration inverts exactly the formula the
// prediction applies.
type terms struct {
	daRounds float64 // doacross rounds: max(ceil(N/P), critical path) + stalls/P
	wfRounds float64 // wavefront schedule rounds (barrier-rounded depth)
	levels   float64 // level count (barriers paid)
	r        float64 // mean true-dependency reads per iteration
	imb      float64 // static within-level read imbalance
	claims   float64 // dynamic chunk claims
}

// modelTerms derives the structural factors from the inspection statistics,
// normalizing degenerate inputs (a caller-constructed Stats with negative or
// non-finite fields) instead of poisoning the arithmetic. ok is false when
// the loop is empty — nothing to predict or calibrate.
func modelTerms(st Stats, workers, nrhs int) (t terms, ok bool) {
	p := workers
	if p < 1 {
		p = 1
	}
	n := st.Iterations
	if n <= 0 {
		return terms{}, false
	}
	workRounds := (n + p - 1) / p
	bound := workRounds
	if st.CriticalPathLen > bound {
		bound = st.CriticalPathLen
	}
	t.daRounds = float64(bound) + sane(st.StallWeight, 0)/float64(p)
	minWfRounds := workRounds
	if st.Levels > minWfRounds {
		minWfRounds = st.Levels
	}
	wfRounds := st.ScheduleRounds
	if wfRounds < minWfRounds {
		// Stats from a source that did not fill ScheduleRounds: the level
		// schedule can never be shallower than either bound.
		wfRounds = minWfRounds
	}
	t.wfRounds = float64(wfRounds)
	if st.Levels > 0 {
		t.levels = float64(st.Levels)
	}
	if st.Edges > 0 {
		t.r = float64(st.Edges) / float64(n)
	}
	t.imb = sane(st.ReadImbalance, 0)
	claims := st.DynamicClaims
	if claims <= 0 {
		claims = (n+sched.DefaultChunk-1)/sched.DefaultChunk + st.Levels*p
	}
	t.claims = float64(claims)
	return t, true
}

// Predict estimates the executor-phase time of all three strategies for a
// loop with the given inspection statistics on the given worker count,
// carrying nrhs right-hand-side columns, in the coefficients' time unit. It
// is the Auto cost model — core.AutoCosts.PredictN delegates here, and the
// back-solver inverts exactly this formula. tDynamic is zero ("not
// considered") when ClaimNs is zero. See the core.AutoCosts documentation
// for the model's derivation.
func Predict(c Coeffs, st Stats, workers, nrhs int) (tDoacross, tWavefront, tDynamic float64) {
	t, ok := modelTerms(st, workers, nrhs)
	if !ok {
		return 0, 0, 0
	}
	if nrhs < 1 {
		nrhs = 1
	}
	workNs := float64(nrhs) * c.IterNs
	perIter := workNs + t.r*c.FlagCheckNs
	tDoacross = t.daRounds * (workNs + (t.r+3)*c.FlagCheckNs)
	wfBase := t.wfRounds*perIter + t.levels*c.BarrierNs
	readTermNs := c.FlagCheckNs + workNs/(t.r+1)
	tWavefront = wfBase + t.imb*readTermNs
	if c.ClaimNs > 0 {
		tDynamic = wfBase + t.claims*c.ClaimNs
	}
	return tDoacross, tWavefront, tDynamic
}

// Options tunes the tuner itself. The zero value means defaults throughout;
// a negative Epsilon disables exploration entirely (pure greedy — wanted by
// tests that must be schedule-deterministic without filtering explored
// runs).
type Options struct {
	// Alpha is the exponential-moving-average smoothing factor applied to
	// each arm's observed executor-phase time, in (0, 1]; higher values
	// weight recent runs more. Zero means DefaultAlpha.
	Alpha float64
	// Epsilon is the exploration probability: on each decision, with
	// probability Epsilon the least-observed non-best executor runs instead
	// of the predicted-best one, so a wrong initial pick cannot lock in.
	// Zero means DefaultEpsilon; negative disables exploration.
	Epsilon float64
	// Blend is the rate at which back-solved coefficient proposals are
	// folded into the current coefficients, in (0, 1]: 1 jumps straight to
	// each proposal, smaller values smooth over observation noise. Zero
	// means DefaultBlend.
	Blend float64
	// Seed seeds the deterministic exploration RNG (splitmix64). Zero means
	// 1, so the zero value is still fully deterministic.
	Seed uint64
}

// Default Options values.
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
// hiccup moves the average by at most Alpha*(maxSampleRatio-1) (12.5% at the
// default Alpha), while a sustained slowdown is still tracked geometrically.
// A sample equal to the average, as in a fixed-truth simulation, is
// unaffected.
const maxSampleRatio = 1.5

// WithDefaults resolves the zero fields to the package defaults and clamps
// out-of-range values into their documented domains.
func (o Options) WithDefaults() Options {
	if o.Alpha == 0 || math.IsNaN(o.Alpha) {
		o.Alpha = DefaultAlpha
	}
	if o.Alpha < 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Alpha > 1 {
		o.Alpha = 1
	}
	if o.Epsilon == 0 || math.IsNaN(o.Epsilon) {
		o.Epsilon = DefaultEpsilon
	}
	if o.Epsilon < 0 {
		o.Epsilon = 0
	}
	if o.Epsilon > 1 {
		o.Epsilon = 1
	}
	if o.Blend == 0 || math.IsNaN(o.Blend) || o.Blend < 0 {
		o.Blend = DefaultBlend
	}
	if o.Blend > 1 {
		o.Blend = 1
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
// the run and tests can filter it). The dynamic arm participates only when a
// claim coefficient is available or it has already been observed. rng may be
// nil, which disables exploration like a negative Epsilon.
func (s *PlanState) Decide(st Stats, workers, nrhs int, o Options, rng *RNG) (pick int, explored bool) {
	o = o.WithDefaults()
	tda, twf, tdyn := Predict(s.Coeffs, st, workers, nrhs)
	score := [NumExecutors]float64{tda, twf, tdyn}
	avail := [NumExecutors]bool{true, true, s.Coeffs.ClaimNs > 0 || s.Obs[WavefrontDynamic] > 0}
	for e := 0; e < NumExecutors; e++ {
		if s.Obs[e] > 0 {
			score[e] = s.ObsNs[e]
		}
	}
	pick = Doacross
	for e := Wavefront; e < NumExecutors; e++ {
		if avail[e] && score[e] < score[pick] {
			pick = e
		}
	}
	if o.Epsilon > 0 && rng != nil && rng.Float64() < o.Epsilon {
		cand := -1
		for e := 0; e < NumExecutors; e++ {
			if e != pick && avail[e] && (cand < 0 || s.Obs[e] < s.Obs[cand]) {
				cand = e
			}
		}
		if cand >= 0 {
			s.Explorations++
			return cand, true
		}
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
func (s *PlanState) Observe(exec int, st Stats, workers, nrhs int, observedNs float64, o Options) {
	if exec < 0 || exec >= NumExecutors {
		return
	}
	if math.IsNaN(observedNs) || math.IsInf(observedNs, 0) || observedNs < 0 {
		return
	}
	o = o.WithDefaults()
	if s.Obs[exec] == 0 {
		s.ObsNs[exec] = observedNs
	} else {
		if limit := maxSampleRatio * s.ObsNs[exec]; limit > 0 && observedNs > limit {
			observedNs = limit
		}
		s.ObsNs[exec] += o.Alpha * (observedNs - s.ObsNs[exec])
	}
	s.Obs[exec]++
	s.Runs++
	s.calibrate(exec, st, workers, nrhs, o)
}

// blendTo moves *field toward the proposal at the blend rate.
func blendTo(field *float64, proposal, rate float64) {
	*field += rate * (proposal - *field)
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
// blended (Options.Blend) and sanitized, preserving the coefficient
// invariants whatever the sample.
func (s *PlanState) calibrate(exec int, st Stats, workers, nrhs int, o Options) {
	t, ok := modelTerms(st, workers, nrhs)
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
			blendTo(&c.IterNs, iter, o.Blend)
		} else {
			blendTo(&c.IterNs, 0, o.Blend)
			if fd := t.daRounds * (t.r + 3); fd > 0 {
				blendTo(&c.FlagCheckNs, obs/fd, o.Blend)
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
			blendTo(&c.IterNs, iter, o.Blend)
		} else {
			blendTo(&c.IterNs, 0, o.Blend)
			if t.levels > 0 {
				blendTo(&c.BarrierNs, (obs-(t.wfRounds*t.r+t.imb)*c.FlagCheckNs)/t.levels, o.Blend)
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
			blendTo(&c.IterNs, iter, o.Blend)
		} else {
			blendTo(&c.IterNs, 0, o.Blend)
			if t.claims > 0 && c.ClaimNs > 0 {
				blendTo(&c.ClaimNs, (obs-t.wfRounds*t.r*c.FlagCheckNs-t.levels*c.BarrierNs)/t.claims, o.Blend)
				if c.ClaimNs < minCoeff {
					// A claim coefficient exists for this plan; keep it
					// positive so the dynamic arm stays comparable.
					c.ClaimNs = minCoeff
				}
			}
		}
	}
	s.Coeffs = Sanitize(c)
}
