package core

import (
	"sync/atomic"
	"time"

	"doacross/internal/flags"
	"doacross/internal/sched"
	"doacross/internal/tune"
)

// AutoCosts are the coefficients of the Auto executor's calibrated cost
// model. The type, its prediction (PredictN) and its selection rule (Choose)
// are defined in package tune, the one home of the host cost model; see
// tune.Coeffs. Coefficients that are not Valid (the zero value in
// particular) mean "calibrate on first use": the runtime micro-times one
// level-barrier rendezvous, one iter-table/ready-flag operation and one
// dynamic chunk claim on its live pool, once per Runtime.
type AutoCosts = tune.Coeffs

// autoCostsFor returns the coefficients the Auto selection uses: the ones
// configured through Options.AutoCosts when set, otherwise the probe's
// measurements, taken once per Runtime and memoized.
func (rt *Runtime) autoCostsFor() AutoCosts {
	if rt.autoCosts.Valid() {
		return rt.autoCosts
	}
	if rt.opts.AutoCosts.Valid() {
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
// over the Record, Writer, Set, IsDone, Reset and Clear cycle the doacross
// performs per element, on tables of the doacross's own types), and one
// dynamic chunk claim (all workers draining a shared counter at chunk size
// 1 — the fully contended fetch-add the dynamic wavefront's claim loop
// degrades to inside a narrow level).
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
			sink += tab.Writer(e)
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
