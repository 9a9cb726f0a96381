package core

import (
	"sort"

	"doacross/internal/tune"
)

// TuningOptions configures the online self-tuning Auto selection
// (Options.Tuning / doacross.WithOnlineTuning); see tune.Options.
type TuningOptions = tune.Options

// tuner is the runtime's online tuning state: one tune.PlanState per plan
// fingerprint, the shared exploration RNG, and the aggregate counters the
// snapshot and the metrics sink report. It is guarded by the runtime's run
// mutex like every other piece of plan state.
type tuner struct {
	opts  tune.Options
	rng   *tune.RNG
	plans map[uint64]*tune.PlanState
	// observations counts completed runs fed back in; explorations the
	// subset that deliberately ran a non-best executor.
	observations uint64
	explorations uint64
}

// newTuner builds the tuner for a runtime configured with Options.Tuning.
func newTuner(o TuningOptions) *tuner {
	o = o.WithDefaults()
	return &tuner{
		opts:  o,
		rng:   tune.NewRNG(o.Seed),
		plans: make(map[uint64]*tune.PlanState),
	}
}

// tuningActive reports whether Auto decisions consult the tuner: a tuner
// must be configured, and the coefficients must not be pinned —
// Options.AutoCosts declares the costs known, which freezes tuning entirely
// (no plan state is created or updated, so a frozen tuner's snapshot is
// byte-identical across runs).
func (rt *Runtime) tuningActive() bool {
	return rt.tuner != nil && !rt.opts.AutoCosts.Valid()
}

// tunerBase resolves the coefficients a fresh plan's tuner state is seeded
// from: the configured initial costs when valid, otherwise the probe's
// one-time measurement (memoized by autoCostsFor, shared with the untuned
// Auto path).
func (rt *Runtime) tunerBase() AutoCosts {
	if ic := rt.tuner.opts.InitialCosts; ic.Valid() {
		return ic
	}
	return rt.autoCostsFor()
}

// planState returns (building on first use) the tuner state of the plan with
// the given fingerprint.
func (tn *tuner) planState(fp uint64, base AutoCosts) *tune.PlanState {
	ps := tn.plans[fp]
	if ps == nil {
		s := tune.NewPlanState(base)
		ps = &s
		tn.plans[fp] = ps
	}
	return ps
}

// pendingObservation carries a tuned Auto decision across the executor phase
// to the post-run feedback: which plan state decided, which arm ran, and the
// shape the back-solver needs. Armed by executorFor, consumed by
// observeTuning on success; a failed run leaves it to be discarded by the
// next decision (aborted executor-phase times measure the failure, not the
// executor).
type pendingObservation struct {
	ps       *tune.PlanState
	stats    InspectStats
	exec     int // tune executor index
	nrhs     int
	explored bool
}

// observeTuning completes the feedback loop after a successful run: the
// armed decision's plan state absorbs the measured executor-phase time, and
// the report's tuned coefficients and predicted times are re-stamped from
// the post-run state — the pre-run stamps described what the decision knew,
// these describe what the run taught, so reports and doastat agree on the
// current model. One nil test when no decision was armed (tuning off, fixed
// executor, or a single-level loop). Caller holds runMu.
func (rt *Runtime) observeTuning(rep *Report) {
	ob := rt.tuneObs
	if ob.ps == nil {
		return
	}
	rt.tuneObs = pendingObservation{}
	ob.ps.Observe(ob.exec, ob.stats, rt.opts.Workers, ob.nrhs, float64(rep.ExecTime.Nanoseconds()))
	rt.tuner.observations++
	if ob.explored {
		rt.tuner.explorations++
	}
	rep.TunedCosts = ob.ps.Coeffs
	rep.setPredicted(rep.TunedCosts.PredictN(ob.stats, rt.opts.Workers, ob.nrhs))
	if ts, ok := rt.opts.Metrics.(TuningSink); ok {
		ts.RecordTuning(ob.explored)
	}
}

// setPredicted stamps the cost model's estimates, indexed by arm, into the
// report's Predicted*Ns fields.
func (r *Report) setPredicted(times [tune.NumExecutors]float64) {
	r.PredictedDoacrossNs = times[tune.Doacross]
	r.PredictedWavefrontNs = times[tune.Wavefront]
	r.PredictedDynamicNs = times[tune.WavefrontDynamic]
}

// TuningArm is one executor's slice of a plan's tuner state: how many
// completed runs it was observed over and the exponential moving average of
// their executor-phase times (meaningful only when Observations > 0).
type TuningArm struct {
	Observations uint64
	EMANs        float64
}

// TuningPlan is the tuner state of one plan in a TuningSnapshot.
type TuningPlan struct {
	// Fingerprint is the plan's structural access-pattern hash — the
	// schedule cache's hash-tier key, retained across in-place repairs so a
	// repaired plan keeps (and keeps correcting) its calibration.
	Fingerprint uint64
	// Runs counts the plan's observed runs; Explorations the decisions that
	// deliberately ran a non-best executor.
	Runs         uint64
	Explorations uint64
	// Costs are the plan's tuned coefficients.
	Costs AutoCosts
	// Arms are the bandit arms, indexed by ExecutorKind.
	Arms [tune.NumExecutors]TuningArm
}

// TuningSnapshot is a point-in-time copy of a runtime's online-tuning state:
// aggregate observation counts and the per-plan calibrations, sorted by
// fingerprint. The zero value is what runtimes without WithOnlineTuning (and
// frozen tuners that never observed) report.
type TuningSnapshot struct {
	Observations uint64
	Explorations uint64
	Plans        []TuningPlan
}

// TuningSnapshot returns a copy of the runtime's online-tuning state. It
// serializes with the runtime's runs like every stateful entry point; the
// snapshot is owned by the caller.
func (rt *Runtime) TuningSnapshot() TuningSnapshot {
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	tn := rt.tuner
	if tn == nil {
		return TuningSnapshot{}
	}
	s := TuningSnapshot{
		Observations: tn.observations,
		Explorations: tn.explorations,
	}
	if len(tn.plans) > 0 {
		s.Plans = make([]TuningPlan, 0, len(tn.plans))
		for fp, ps := range tn.plans {
			p := TuningPlan{Fingerprint: fp, Runs: ps.Runs, Explorations: ps.Explorations, Costs: ps.Coeffs}
			for e := range p.Arms {
				p.Arms[e] = TuningArm{ps.Obs[e], ps.ObsNs[e]}
			}
			s.Plans = append(s.Plans, p)
		}
		sort.Slice(s.Plans, func(i, j int) bool { return s.Plans[i].Fingerprint < s.Plans[j].Fingerprint })
	}
	return s
}
