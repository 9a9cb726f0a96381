package core

import (
	"sync/atomic"
	"time"

	"doacross/internal/flags"
	"doacross/internal/sched"
	"doacross/internal/tune"
)

// AutoCosts are the coefficients of the Auto executor's calibrated cost
// model. The unit is nominally nanoseconds (what the live self-calibration
// probe measures), but only ratios matter for the selection, so the
// simulator-side experiments feed the Figure 6 cost-model constants in
// straight.
//
// The model estimates the executor-phase time of all three strategies from
// the inspection statistics (see Predict) and picks the cheapest one.
// Zero-valued BarrierNs/FlagCheckNs mean "calibrate on first use": the
// runtime micro-times one level-barrier rendezvous, one iter-table/ready-flag
// operation and one dynamic chunk claim on its live pool, once per Runtime.
type AutoCosts struct {
	// BarrierNs is the cost of one level-barrier rendezvous at the runtime's
	// worker count — what both wavefront executors pay once per level.
	BarrierNs float64
	// FlagCheckNs is the cost of one flag-table operation: the iter-table
	// lookup-and-branch of the paper's Figure 5, and (taken as the same
	// order) the table writes the doacross pays per element in its
	// inspector, executor and postprocessor.
	FlagCheckNs float64
	// ClaimNs is the cost of one dynamic chunk claim: the contended atomic
	// fetch-add of the self-scheduling loop, what the dynamic within-level
	// wavefront pays per chunk (plus one failed claim per worker per level).
	// Zero means no claim coefficient is available — the dynamic executor is
	// then excluded from the comparison (Predict reports zero for it), which
	// keeps decisions from coefficients configured before the dynamic
	// executor existed exactly two-way. The self-calibration probe always
	// measures it.
	ClaimNs float64
	// IterNs is an optional estimate of one iteration's useful work. The
	// probe cannot know the body's cost, so it defaults to zero — the
	// overhead-bound regime, which is where executor choice matters most.
	// Callers whose bodies are heavy can supply it (WithAutoCosts) to credit
	// the doacross's cross-level pipelining against the wavefront's
	// barrier-rounded schedule.
	IterNs float64
}

// valid reports whether the coefficients are usable for a decision.
func (c AutoCosts) valid() bool { return c.BarrierNs > 0 && c.FlagCheckNs > 0 }

// Predict estimates the executor-phase time of all three strategies for a
// loop with the given inspection statistics on the given worker count, in the
// coefficients' time unit. The model (writing N, E, W, L for iterations,
// edges, stall weight, levels, and P for workers, with r = E/N the mean
// true-dependency reads per iteration):
//
//	rounds_da = max(ceil(N/P), L) + W/P
//	rounds_wf = ScheduleRounds = Σ_l ceil(w_l/P)
//
//	T_doacross = rounds_da * (IterNs + (r+3)*FlagCheckNs)
//	T_static   = rounds_wf * (IterNs + r*FlagCheckNs) + L*BarrierNs
//	           + ReadImbalance * (FlagCheckNs + IterNs/(r+1))
//	T_dynamic  = rounds_wf * (IterNs + r*FlagCheckNs) + L*BarrierNs
//	           + DynamicClaims * ClaimNs
//
// The doacross executes in rounds bounded below by both the work
// distribution (ceil(N/P)) and the critical path (L), plus the stalls its
// short-distance dependencies inject (InspectStats.StallWeight — the stalls
// the paper's doconsider reordering removes by lengthening distances). Each
// doacross round costs the iteration's work plus one flag check per
// dependency read and roughly three table writes (inspector record, ready
// set, postprocess reset).
//
// Both wavefront strategies execute the level schedule's barrier-rounded
// depth (rounds_wf ≥ max(ceil(N/P), L): levels cannot pipeline, and widths
// round up per level), pay the classify per read but no table maintenance
// and no waits, and add one full barrier per level. They differ in how
// per-iteration cost variance lands: the static schedule assigns a level's
// members without regard to their cost, so the extra read terms its slowest
// worker executes beyond a balanced split (InspectStats.ReadImbalance) are
// charged at one read term's cost — the classify plus the read's share of
// the iteration work, IterNs/(r+1), distributing IterNs over the base term
// and r reads. The dynamic executor self-schedules the level and absorbs
// that imbalance, paying instead one ClaimNs per chunk claim
// (InspectStats.DynamicClaims; when the stats carry no claim count, it is
// estimated as ceil(N/DefaultChunk) + L*P). Dynamic beats static exactly
// when the imbalance it reclaims exceeds the claim overhead it adds.
//
// tDynamic is zero — "not considered" — when ClaimNs is zero; see ClaimNs.
//
// With the default IterNs = 0, balanced levels (ReadImbalance = 0) and the
// dynamic excluded, the comparison reduces to the two-way overhead model of
// the static wavefront: for a fixed shape the choice flips exactly where the
// BarrierNs/FlagCheckNs ratio crosses
//
//	(rounds_da*(r+3) - rounds_wf*r) / L
func (c AutoCosts) Predict(st InspectStats, workers int) (tDoacross, tWavefront, tDynamic float64) {
	return c.PredictN(st, workers, 1)
}

// PredictN is Predict for a blocked multi-RHS traversal carrying nrhs
// right-hand-side columns (Runtime.RunMulti): the useful work of every
// iteration scales by the column count — IterNs becomes nrhs*IterNs
// throughout — while the traversal's overheads (flag maintenance, level
// barriers, chunk claims) are paid once per block regardless of width, since
// one classification covers a whole element row and the dependency structure
// is unchanged. That asymmetry is what can flip the pick as nrhs grows: the
// doacross's stall rounds (the critical-path and StallWeight terms) each cost
// a full column-scaled iteration, while the wavefront's L*BarrierNs stays
// fixed and is amortized across the block — so barrier-dominated wavefronts
// that lose at nrhs = 1 win at moderate block widths. nrhs below 1 is treated
// as 1; Predict(st, p) == PredictN(st, p, 1).
func (c AutoCosts) PredictN(st InspectStats, workers, nrhs int) (tDoacross, tWavefront, tDynamic float64) {
	// The formula itself lives in the leaf tune package: the online tuner
	// back-solves it and machine.SimulateTuning replays it, so keeping a
	// single definition is what guarantees the live selection, the
	// calibration and the simulated trajectories can never disagree.
	return tune.Predict(tune.Coeffs(c), st.tuneStats(), workers, nrhs)
}

// tuneStats projects the inspection statistics onto the cost model's inputs
// (tune.Stats) — the subset Predict and the tuner's back-solver consume.
func (st InspectStats) tuneStats() tune.Stats {
	return tune.Stats{
		Iterations:      st.Iterations,
		Edges:           st.Edges,
		StallWeight:     st.StallWeight,
		Levels:          st.Levels,
		CriticalPathLen: st.CriticalPathLen,
		ScheduleRounds:  st.ScheduleRounds,
		ReadImbalance:   st.ReadImbalance,
		DynamicClaims:   st.DynamicClaims,
	}
}

// autoChoose is the Auto selection: a single barrier-free level (a doall, or
// an empty loop) always pre-schedules statically (a dynamic run of one level
// would only add claim traffic); otherwise the calibrated cost model picks
// the cheapest of the three strategies for a traversal carrying nrhs
// right-hand-side columns (1 for scalar runs), with the dynamic considered
// only when a claim coefficient is available (PredictN returns zero for it
// otherwise).
func autoChoose(st InspectStats, workers, nrhs int, costs AutoCosts) ExecutorKind {
	if st.Levels <= 1 {
		return ExecWavefront
	}
	tda, twf, tdyn := costs.PredictN(st, workers, nrhs)
	pick, best := ExecDoacross, tda
	if twf < best {
		pick, best = ExecWavefront, twf
	}
	if tdyn > 0 && tdyn < best {
		pick = ExecWavefrontDynamic
	}
	return pick
}

// Choose replays the Auto selection offline: the executor an ExecAuto runtime
// with these coefficients would pick for a loop with the given inspection
// statistics, worker count and right-hand-side block width. It exists for
// diagnosis tools (doastat) that want to report the pick next to the three
// PredictN estimates without building a runtime.
func (c AutoCosts) Choose(st InspectStats, workers, nrhs int) ExecutorKind {
	return autoChoose(st, workers, nrhs, c)
}

// autoCostsFor returns the coefficients the Auto selection uses: the ones
// configured through Options.AutoCosts when set, otherwise the probe's
// measurements, taken once per Runtime and memoized.
func (rt *Runtime) autoCostsFor() AutoCosts {
	if rt.autoCosts.valid() {
		return rt.autoCosts
	}
	if rt.opts.AutoCosts.valid() {
		rt.autoCosts = rt.opts.AutoCosts
	} else {
		rt.autoCosts = measureAutoCosts(rt)
	}
	return rt.autoCosts
}

// Probe sizes: small enough that the one-time calibration costs well under a
// millisecond, large enough that the per-operation times are averaged over
// thousands of operations.
const (
	probeBarriers  = 256
	probeFlagElems = 1024
	probeFlagReps  = 16
	probeClaims    = 2048
)

// probeSink keeps the flag-probe loop observable so the compiler cannot
// delete it. Updated atomically: distinct Runtimes may calibrate
// concurrently (each holds only its own run mutex).
var probeSink atomic.Int64

// measureAutoCosts is the self-calibration probe: it micro-times one level
// barrier on the runtime's live pool at its configured worker count (all
// workers spinning back-to-back through probeBarriers rendezvous, exactly
// the wavefront executor's steady state), one flag-table operation (averaged
// over the record/classify/set/check/reset/clear cycle the doacross performs
// per element, on tables of the doacross's own types), and one dynamic chunk
// claim (all workers draining a shared counter at chunk size 1 — the fully
// contended fetch-add the dynamic wavefront's claim loop degrades to inside
// a narrow level).
func measureAutoCosts(rt *Runtime) AutoCosts {
	k := rt.opts.Workers
	if k < 1 {
		k = 1
	}
	bar := phaseBarrier{n: int32(k)}
	start := time.Now()
	rt.pool.Submit(k, func(w int) {
		for r := 0; r < probeBarriers; r++ {
			bar.wait(nil)
		}
	})
	barrierNs := float64(time.Since(start).Nanoseconds()) / probeBarriers

	tab := flags.NewIterTable(probeFlagElems)
	ready := flags.NewReadyFlags(probeFlagElems)
	var sink int64
	start = time.Now()
	for rep := 0; rep < probeFlagReps; rep++ {
		for e := 0; e < probeFlagElems; e++ {
			tab.Record(e, e)
			dep, w := tab.Classify(e, e+1)
			sink += int64(dep) + w
			ready.Set(e)
			if ready.IsDone(e) {
				sink++
			}
			tab.Reset(e)
			ready.Clear(e)
		}
	}
	flagNs := float64(time.Since(start).Nanoseconds()) / float64(6*probeFlagReps*probeFlagElems)
	probeSink.Add(sink)

	var next atomic.Int64
	start = time.Now()
	rt.pool.Submit(k, func(w int) {
		sched.DynamicLoop(&next, probeClaims, 1, w, func(worker, pos int) {}, nil)
	})
	claimNs := float64(time.Since(start).Nanoseconds()) / probeClaims

	// Clock-resolution floors: a decision needs positive coefficients even
	// on hosts whose timer cannot resolve a single rendezvous.
	if barrierNs < 1 {
		barrierNs = 1
	}
	if flagNs < 0.25 {
		flagNs = 0.25
	}
	if claimNs < 0.25 {
		claimNs = 0.25
	}
	return AutoCosts{BarrierNs: barrierNs, FlagCheckNs: flagNs, ClaimNs: claimNs}
}
