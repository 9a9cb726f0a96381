package tune

import (
	"fmt"
	"math"

	"doacross/internal/sched"
)

// Coeffs are the coefficients of the Auto executor's cost model (core and
// the facade alias this type as AutoCosts). The unit is nominally
// nanoseconds (what the live self-calibration probe measures), but only
// ratios matter for the selection, so the simulator-side experiments feed
// the Figure 6 cost-model constants in straight.
//
// The model estimates the executor-phase time of all three strategies from
// the inspection statistics (see PredictN) and picks the cheapest one
// (Choose). The zero value means "calibrate on first use": the runtime
// micro-times one level-barrier rendezvous, one iter-table/ready-flag
// operation and one dynamic chunk claim on its live pool, once per Runtime.
type Coeffs struct {
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
	ClaimNs float64
	// IterNs is an optional estimate of one iteration's useful work. The
	// probe cannot know the body's cost, so it defaults to zero — the
	// overhead-bound regime, which is where executor choice matters most.
	// Callers whose bodies are heavy can supply it (WithAutoCosts) to credit
	// the doacross's cross-level pipelining against the wavefront's
	// barrier-rounded schedule.
	IterNs float64
}

// Valid reports whether the coefficients are usable for a decision: all four
// finite, BarrierNs, FlagCheckNs and ClaimNs positive, IterNs non-negative.
// The zero value is not valid; it means "not configured".
func (c Coeffs) Valid() bool {
	return c.BarrierNs > 0 && c.FlagCheckNs > 0 && c.ClaimNs > 0 &&
		usable(c.BarrierNs) && usable(c.FlagCheckNs) && usable(c.ClaimNs) && usable(c.IterNs)
}

// Stats describe what the inspector learned about a loop's dependency
// structure (core and the facade alias this type as InspectStats): the
// wavefront decomposition the pre-scheduled executor would run, and the
// summary numbers the cost model consumes.
type Stats struct {
	// Iterations is the loop's iteration count.
	Iterations int
	// Edges is the number of (deduplicated) true-dependency edges.
	Edges int
	// StallWeight estimates the pipeline stalls the doacross would suffer,
	// from the dependence-distance histogram: Σ over edges of
	// max(0, (P - d)/P), where d is the edge's distance (consumer iteration
	// minus producer) and P the worker count. A distance-1 edge stalls its
	// consumer's worker almost a full iteration (the producer started in the
	// same schedule round); an edge at distance ≥ P is fully absorbed by the
	// pipelining. Lengthening distances is exactly what the paper's
	// doconsider reordering buys, so this is the statistic that separates a
	// natural-order solve from a reordered one.
	StallWeight float64
	// Levels is the number of wavefront levels.
	Levels int
	// MaxLevelWidth is the size of the widest level.
	MaxLevelWidth int
	// MeanLevelWidth is Iterations / Levels, the average parallelism a
	// level-scheduled execution exposes.
	MeanLevelWidth float64
	// CriticalPathLen is the number of iterations on the longest dependency
	// chain (equal to Levels: the level of an iteration is the length of the
	// longest chain ending at it).
	CriticalPathLen int
	// ScheduleRounds is the barrier-rounded depth of the wavefront's static
	// schedule: the sum over levels of ceil(width / schedule workers), i.e.
	// the number of iteration slots the slowest worker executes. It is what
	// the cost model charges the wavefront's work term with (the doacross's
	// pipelined counterpart is max(ceil(N/P), CriticalPathLen)).
	ScheduleRounds int
	// ReadImbalance is the extra true-dependency read terms the static level
	// schedule's slowest worker executes beyond a perfectly balanced
	// within-level split, summed over levels: Σ_l (max_w reads(items(l,w)) −
	// ceil(reads_l / P)), with reads counted as in-degree. It is zero when
	// every iteration of a level costs the same, and grows with the
	// heavy-tailed per-iteration cost variance (one hot row per wavefront)
	// that the dynamic within-level executor absorbs — the statistic that
	// separates the static from the dynamic wavefront in the model.
	ReadImbalance float64
	// DynamicClaims is the number of chunk claims a dynamic within-level
	// execution of this decomposition issues: Σ_l (ceil(w_l/chunk) + P) —
	// every successful chunk claim plus each worker's final failed claim per
	// level, at the runtime's configured chunk size.
	DynamicClaims int
	// CacheHit reports whether the decomposition came from the runtime's
	// schedule cache rather than a fresh inspection.
	CacheHit bool
}

// String renders the statistics in a compact single-line form.
func (s Stats) String() string {
	return fmt.Sprintf("iters=%d edges=%d levels=%d maxWidth=%d meanWidth=%.1f cached=%v",
		s.Iterations, s.Edges, s.Levels, s.MaxLevelWidth, s.MeanLevelWidth, s.CacheHit)
}

// minCoeff is the floor kept under the calibrated BarrierNs, FlagCheckNs and
// ClaimNs: the decision layer requires positive coefficients, and a
// coefficient driven to zero by a degenerate observation could never recover
// through multiplicative blending.
const minCoeff = 1e-3

// usable reports whether v is finite and non-negative.
func usable(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// sane returns v when it is a usable coefficient value, else the fallback.
func sane(v, fallback float64) float64 {
	if !usable(v) {
		return fallback
	}
	return v
}

// Sanitize clamps the coefficients into the tuner's invariant domain:
// BarrierNs, FlagCheckNs and ClaimNs at least minCoeff, IterNs non-negative,
// everything finite. It is applied to every seed and every blended update, so
// a PlanState never carries NaN, infinite, negative or zero overhead
// coefficients whatever observations were fed in.
func Sanitize(c Coeffs) Coeffs {
	floor := func(v float64) float64 { return math.Max(sane(v, minCoeff), minCoeff) }
	c.BarrierNs, c.FlagCheckNs, c.ClaimNs = floor(c.BarrierNs), floor(c.FlagCheckNs), floor(c.ClaimNs)
	c.IterNs = sane(c.IterNs, 0)
	return c
}

// terms are the structural factors of the cost model, shared by PredictN and
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
func modelTerms(st Stats, workers int) (t terms, ok bool) {
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

// PredictN estimates the executor-phase time of all three strategies for a
// loop with the given inspection statistics on the given worker count,
// carrying nrhs right-hand-side columns, in the coefficients' time unit,
// indexed by arm (Doacross, Wavefront, WavefrontDynamic). It is the Auto
// cost model: the live selection (Choose), the online tuner's
// back-solver and the simulator's replay all evaluate exactly this formula.
// The model (writing N, E, W, L for iterations, edges, stall weight, levels,
// and P for workers, with r = E/N the mean true-dependency reads per
// iteration, and I = nrhs*IterNs):
//
//	rounds_da = max(ceil(N/P), L) + W/P
//	rounds_wf = ScheduleRounds = Σ_l ceil(w_l/P)
//
//	T_doacross = rounds_da * (I + (r+3)*FlagCheckNs)
//	T_static   = rounds_wf * (I + r*FlagCheckNs) + L*BarrierNs
//	           + ReadImbalance * (FlagCheckNs + I/(r+1))
//	T_dynamic  = rounds_wf * (I + r*FlagCheckNs) + L*BarrierNs
//	           + DynamicClaims * ClaimNs
//
// The doacross executes in rounds bounded below by both the work
// distribution (ceil(N/P)) and the critical path (L), plus the stalls its
// short-distance dependencies inject (Stats.StallWeight — the stalls the
// paper's doconsider reordering removes by lengthening distances). Each
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
// worker executes beyond a balanced split (Stats.ReadImbalance) are charged
// at one read term's cost — the classify plus the read's share of the
// iteration work, I/(r+1), distributing the work over the base term and r
// reads. The dynamic executor self-schedules the level and absorbs that
// imbalance, paying instead one ClaimNs per chunk claim
// (Stats.DynamicClaims; when the stats carry no claim count, it is estimated
// as ceil(N/DefaultChunk) + L*P). Dynamic beats static exactly when the
// imbalance it reclaims exceeds the claim overhead it adds.
//
// The column count scales only the useful work: the traversal's overheads
// (flag maintenance, level barriers, chunk claims) are paid once per block
// regardless of width, since one classification covers a whole element row.
// That asymmetry is what can flip the pick as nrhs grows: the doacross's
// stall rounds each cost a full column-scaled iteration, while the
// wavefront's L*BarrierNs stays fixed and is amortized across the block.
// nrhs below 1 is treated as 1.
//
// With IterNs = 0 and balanced levels, the doacross/static comparison is a
// pure overhead model whose choice, for a fixed shape, flips exactly where
// the BarrierNs/FlagCheckNs ratio crosses
//
//	(rounds_da*(r+3) - rounds_wf*r) / L
func (c Coeffs) PredictN(st Stats, workers, nrhs int) (times [NumExecutors]float64) {
	t, ok := modelTerms(st, workers)
	if !ok {
		return times
	}
	if nrhs < 1 {
		nrhs = 1
	}
	workNs := float64(nrhs) * c.IterNs
	perIter := workNs + t.r*c.FlagCheckNs
	wfBase := t.wfRounds*perIter + t.levels*c.BarrierNs
	readTermNs := c.FlagCheckNs + workNs/(t.r+1)
	times[Doacross] = t.daRounds * (workNs + (t.r+3)*c.FlagCheckNs)
	times[Wavefront] = wfBase + t.imb*readTermNs
	times[WavefrontDynamic] = wfBase + t.claims*c.ClaimNs
	return times
}

// Choose is the Auto selection: the arm an untuned Auto runtime with these
// coefficients runs for a loop with the given statistics, worker count and
// right-hand-side block width, returned with the PredictN estimates behind
// it. A single barrier-free level (a doall, or an empty loop) always
// pre-schedules statically — a dynamic run of one level would only add claim
// traffic; otherwise the cheapest estimate wins (Best).
func (c Coeffs) Choose(st Stats, workers, nrhs int) (pick int, times [NumExecutors]float64) {
	times = c.PredictN(st, workers, nrhs)
	pick = Wavefront
	if st.Levels > 1 {
		pick = Best(times)
	}
	return pick, times
}

// Best returns the arm with the lowest time, ties going to the lower arm
// index. It is the one argmin behind Choose, PlanState.Decide's greedy step
// and the experiments' ground-truth best arm.
func Best(t [NumExecutors]float64) int {
	pick := Doacross
	for e := Wavefront; e < NumExecutors; e++ {
		if t[e] < t[pick] {
			pick = e
		}
	}
	return pick
}

// The repair gate prices an incremental plan repair against a cold
// re-inspection in abstract per-item units (only the ratios matter). A cold
// inspection walks every iteration's access closures and every dependency
// edge — writer-index fill, predecessor scan, structural hash — so it is
// charged per iteration-or-edge. A repair touches only the dirty cone
// (worklist, heap and predecessor re-scan per member) plus one cheap pass to
// re-scatter the decomposition's suffix. The cone weight is deliberately the
// heaviest — the worklist pays map and heap constants per member that the
// linear scans of both other terms do not — so a cone approaching the loop
// size loses to the cold path even though the suffix scan is cheap.
const (
	inspectPerItem = 4  // cold inspection, per iteration and per edge
	conePerIter    = 16 // repair, per dirty-cone member
	suffixPerIter  = 1  // repair, per member of the rebuilt level suffix
)

// ColdInspectUnits estimates a cold inspection of a loop with the given
// iteration and dependency-edge counts: iterations are scanned twice (writer
// fill and level sweep), edges once each.
func ColdInspectUnits(iterations, edges int) float64 {
	return inspectPerItem * float64(2*iterations+edges)
}

// BreakEvenCone returns the largest dirty cone for which an incremental
// repair is predicted cheaper than a cold re-inspection, assuming the
// worst-case suffix (the whole loop rescattered). Edits whose cone stays
// under this threshold repair; larger ones re-inspect cold.
func BreakEvenCone(iterations, edges int) int {
	c := (ColdInspectUnits(iterations, edges) - suffixPerIter*float64(iterations)) / conePerIter
	if c < 0 {
		return 0
	}
	return int(c)
}
