package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"doacross"
	"doacross/internal/machine"
	"doacross/internal/stencil"
	"doacross/internal/tune"
)

// TuningRow is one workload's mis-seeded recovery measurement: the online
// tuner (WithOnlineTuning) is deliberately seeded with coefficients that make
// the cost model prefer the measured-worse of the two contested executors
// (the doacross and the static wavefront) while still pricing the dynamic
// wavefront, and the row records how fast measured feedback moves the
// selection to an executor near the fastest one and what the recovery is
// worth. Ground truth is measured on this host, so the row is meaningful on
// any machine — including ones where the busy-wait doacross is the
// pathological arm.
type TuningRow struct {
	Name    string
	Workers int
	// Runs is the tuned run budget, TruthReps the fixed-executor repetitions
	// behind the ground truth and Seed the tuned runtime's exploration seed.
	Runs      int
	TruthReps int
	Seed      uint64

	// Truth is each executor's best executor-phase time in nanoseconds over
	// TruthReps fixed-executor runs, indexed by tune arm and taken
	// round-robin in one window (one run of each executor in turn on three
	// live runtimes), so host drift reaches every executor alike.
	Truth machine.TuningTruth
	// Misled is the tune arm of the measured-worse contested executor, the
	// one the seed coefficients price as best; Margin is its truth over the
	// fastest truth — how decisive the workload is.
	Misled int
	Margin float64

	// MisSeededPick is the tuned runtime's run-0 greedy decision (a tune
	// arm; -1 if run 0 explored) — what the wrong coefficients alone would
	// run forever.
	MisSeededPick int
	// ConvergedAt is the first run from which every later greedy decision
	// picked an executor whose truth is within 1.5x of the fastest
	// (-1: never settled); Explorations counts the deliberate detours and
	// FinalPick is the last greedy decision's arm (-1 if every run explored).
	ConvergedAt  int
	Explorations int
	FinalPick    int

	// Arms is the tuner's per-executor state after the runs, indexed by tune
	// arm: observation count and moving average of the executor-phase time.
	Arms [tune.NumExecutors]doacross.TuningArm

	// Stats is the tuned plan's inspection: the shape CheckTuning replays the
	// truth through machine.SimulateTuning with.
	Stats doacross.InspectStats
}

// settledNs is the settled executor's moving average (0 if none settled).
func (r TuningRow) settledNs() float64 {
	if r.FinalPick < 0 {
		return 0
	}
	return r.Arms[r.FinalPick].EMANs
}

// recovery is the misled executor's truth over the settled executor's moving
// average: what the feedback loop bought over staying misled.
func (r TuningRow) recovery() float64 {
	if t := r.settledNs(); t > 0 {
		return r.Truth[r.Misled] / t
	}
	return 0
}

// near reports whether an arm's truth is within 1.5x of the fastest truth:
// the arms a converged tuner may settle on.
func (r TuningRow) near(arm int) bool {
	return r.Truth[arm] <= 1.5*r.Truth[tune.Best(r.Truth)]
}

// tuningMisledCosts returns seed coefficients whose model prediction prefers
// the contested executor with the given tune arm on any loop shape, by
// pricing the other executors' synchronization primitives catastrophically:
// barriers toward the doacross, flag checks and chunk claims toward the
// static wavefront. Without the claim price, SPE2's read imbalance would
// make the dynamic wavefront the wavefront seed's pick.
func tuningMisledCosts(arm int) doacross.AutoCosts {
	if arm == tune.Doacross {
		return doacross.AutoCosts{BarrierNs: 1e6, FlagCheckNs: 0.01, ClaimNs: 25, IterNs: 100}
	}
	return doacross.AutoCosts{BarrierNs: 0.01, FlagCheckNs: 5000, ClaimNs: 1e6, IterNs: 100}
}

// tuningChain builds the decisive workload: a pure dependency chain, where
// the busy-wait doacross pipelines one flag wait per iteration and the
// wavefront pays a full barrier per unit-width level, so the two executors
// are typically orders of magnitude apart (in whichever direction the host's
// scheduling of spinning workers decides).
func tuningChain(n int) *doacross.Loop {
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

// tuningWorkload is one row of the tuning experiment: the loop, its data and
// the row's budget.
type tuningWorkload struct {
	name      string
	loop      *doacross.Loop
	dataLen   int
	reset     func(y []float64) // reinitialize the data before each run
	workers   int
	runs      int
	truthReps int
	seed      uint64
}

// tuningSeed is the exploration seed of the flag-sized rows. Seed 5's first
// decision is greedy — the misled pick the experiment asserts on — and its
// first exploration arrives at run 3, early enough to escape the wrong arm's
// lock-in well within the run budget.
const tuningSeed = 5

// RunTuningExperiment measures the online tuner's mis-seeded recovery on the
// chain workload and the paper's SPE2 forward substitution at the given
// worker count, run budget and truth repetitions, plus SPE2's near-tie row
// at a fixed budget whatever the arguments say: 2 workers, 40 tuned runs, 6
// truth repetitions and exploration seed 6 (which explores early, at runs 2,
// 3, 8, ..., so all three executors get measured). Every row is measured the
// same way: the three executors' ground truth round-robin in one window,
// then a tuned Auto runtime seeded against the measured-worse contested
// executor, whose convergence trajectory is recorded.
func RunTuningExperiment(workers, runs, truthReps int) ([]TuningRow, error) {
	lf, _, err := stencil.LowerFactor(stencil.SPE2, 1)
	if err != nil {
		return nil, err
	}
	rhs := stencil.RHS(lf.N, 7)
	triLoop, err := doacross.TrisolveLoop(lf, rhs)
	if err != nil {
		return nil, err
	}
	reset := func(y []float64) { copy(y, rhs) }

	const chainN = 512
	workloads := []tuningWorkload{
		{name: fmt.Sprintf("chain n=%d", chainN), loop: tuningChain(chainN), dataLen: chainN,
			workers: workers, runs: runs, truthReps: truthReps, seed: tuningSeed},
		{name: "trisolve SPE2", loop: triLoop, dataLen: lf.N, reset: reset,
			workers: workers, runs: runs, truthReps: truthReps, seed: tuningSeed},
		{name: "trisolve SPE2 near-tie", loop: triLoop, dataLen: lf.N, reset: reset,
			workers: 2, runs: 40, truthReps: 6, seed: 6},
	}

	rows := make([]TuningRow, 0, len(workloads))
	for _, w := range workloads {
		row, err := runTuningWorkload(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// decision is one tuned run's executor (a tune arm) and whether the tuner
// explored it.
type decision struct {
	arm      int
	explored bool
}

// settle scans a run history backward: converged is the first run from
// which every greedy decision picked an arm ok accepts (-1 if the last
// greedy decision did not), final the last greedy decision's arm (-1 if
// every run explored). Explorations are deliberate detours, not changes of
// mind, so they neither break nor start the settled suffix.
func settle(hist []decision, ok func(arm int) bool) (converged, final int) {
	converged, final = -1, -1
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].explored {
			continue
		}
		if final < 0 {
			final = hist[i].arm
		}
		if !ok(hist[i].arm) {
			break
		}
		converged = i
	}
	return converged, final
}

// armOf returns the tune arm of an executor's report name.
func armOf(executor string) int {
	for e := 0; e < tune.NumExecutors; e++ {
		if tune.ExecutorName(e) == executor {
			return e
		}
	}
	return -1
}

// runTuningWorkload measures one row.
func runTuningWorkload(w tuningWorkload) (TuningRow, error) {
	row := TuningRow{Name: w.name, Workers: w.workers, Runs: w.runs, TruthReps: w.truthReps, Seed: w.seed, MisSeededPick: -1}
	y := make([]float64, w.dataLen)
	run := func(rt *doacross.Runtime) (doacross.Report, error) {
		if w.reset != nil {
			w.reset(y)
		}
		return rt.Run(context.Background(), w.loop, y)
	}

	// Ground truth: the best executor-phase time of each executor, one run
	// of each in turn on three live runtimes.
	var fixed []*doacross.Runtime
	defer func() {
		for _, rt := range fixed {
			rt.Close()
		}
	}()
	for e := range tune.NumExecutors {
		rt, err := doacross.New(w.dataLen, doacross.WithWorkers(w.workers), doacross.WithExecutor(doacross.ExecutorKind(e)))
		if err != nil {
			return row, err
		}
		fixed = append(fixed, rt)
	}
	for rep := 0; rep < w.truthReps; rep++ {
		for e, rt := range fixed {
			r, err := run(rt)
			if err != nil {
				return row, err
			}
			if t := float64(r.ExecTime); row.Truth[e] == 0 || t < row.Truth[e] {
				row.Truth[e] = t
			}
		}
	}
	row.Misled = tune.Wavefront
	if row.Truth[tune.Wavefront] < row.Truth[tune.Doacross] {
		row.Misled = tune.Doacross
	}
	if fastest := row.Truth[tune.Best(row.Truth)]; fastest > 0 {
		row.Margin = row.Truth[row.Misled] / fastest
	}

	// The tuned runtime, seeded against the misled executor.
	rt, err := doacross.New(w.dataLen,
		doacross.WithWorkers(w.workers),
		doacross.WithExecutor(doacross.Auto),
		doacross.WithOnlineTuning(doacross.TuningOptions{InitialCosts: tuningMisledCosts(row.Misled), Seed: w.seed}),
	)
	if err != nil {
		return row, err
	}
	defer rt.Close()
	hist := make([]decision, 0, w.runs)
	for r := 0; r < w.runs; r++ {
		rep, err := run(rt)
		if err != nil {
			return row, err
		}
		hist = append(hist, decision{armOf(rep.Executor), rep.Explored})
	}
	if len(hist) > 0 && !hist[0].explored {
		row.MisSeededPick = hist[0].arm
	}
	row.ConvergedAt, row.FinalPick = settle(hist, row.near)

	snap := rt.TuningSnapshot()
	if len(snap.Plans) != 1 {
		return row, fmt.Errorf("experiments: tuner tracks %d plans for %s, want 1", len(snap.Plans), w.name)
	}
	p := snap.Plans[0]
	row.Explorations = int(p.Explorations)
	row.Arms = p.Arms
	row.Stats, err = rt.Inspect(w.loop)
	return row, err
}

// FormatTuning renders the recovery table.
func FormatTuning(rows []TuningRow) string {
	var b strings.Builder
	b.WriteString("Online tuning (live): recovery of the mis-seeded Auto selection by measured feedback\n")
	fmt.Fprintf(&b, "%-22s %3s %12s %12s %12s %8s %-17s %-10s %9s %8s %-17s %12s %9s\n",
		"workload", "P", "Tdoacross", "Twavefront", "Tdynamic", "margin", "fastest", "misled to",
		"converged", "explored", "settled on", "settledEMA", "recovery")
	for _, r := range rows {
		converged := "never"
		if r.ConvergedAt >= 0 {
			converged = fmt.Sprintf("run %d", r.ConvergedAt)
		}
		fmt.Fprintf(&b, "%-22s %3d %12v %12v %12v %7.1fx %-17s %-10s %9s %8d %-17s %12v %8.1fx\n",
			r.Name, r.Workers, time.Duration(r.Truth[tune.Doacross]), time.Duration(r.Truth[tune.Wavefront]),
			time.Duration(r.Truth[tune.WavefrontDynamic]), r.Margin, tune.ExecutorName(tune.Best(r.Truth)),
			tune.ExecutorName(r.MisSeededPick), converged, r.Explorations, tune.ExecutorName(r.FinalPick),
			time.Duration(r.settledNs()), r.recovery())
	}
	return b.String()
}

// CheckTuning verifies the experiment's qualitative claims over three arms.
// Every row must show the mis-seeding took hold (run 0 greedily picked the
// misled executor). A decisive row (the misled executor's truth at least 3x
// the fastest truth) must converge — every later greedy pick an executor
// whose truth is within 1.5x of the fastest — within half the run budget;
// replayed through machine.SimulateTuning with the three truths, the same
// seed coefficients and seed, it must converge by the same rule within the
// same budget; and the misled executor's moving average must stay above the
// settled executor's. (The settled executor's truth is then at least 2x
// below the misled one's: what staying misled would cost.) A thin row only
// has to settle on an executor whose moving average is within 1.5x of the
// lowest moving average among the observed executors, so close seconds
// among near-ties pass and a catastrophic pick fails.
func CheckTuning(rows []TuningRow) []string {
	var problems []string
	for _, r := range rows {
		fail := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("%s P=%d: ", r.Name, r.Workers)+fmt.Sprintf(format, args...))
		}
		if r.MisSeededPick != r.Misled {
			fail("run 0 picked %q, but the seed coefficients should mislead it into %q",
				tune.ExecutorName(r.MisSeededPick), tune.ExecutorName(r.Misled))
			continue
		}
		if r.Margin < 3 {
			lowest := 0.0
			for _, a := range r.Arms {
				if a.Observations > 0 && (lowest == 0 || a.EMANs < lowest) {
					lowest = a.EMANs
				}
			}
			if r.FinalPick < 0 || r.settledNs() > 1.5*lowest {
				fail("settled on %q with a measured average of %v, more than 1.5x the lowest measured %v",
					tune.ExecutorName(r.FinalPick), time.Duration(r.settledNs()), time.Duration(lowest))
			}
			continue
		}
		if r.ConvergedAt < 0 || r.ConvergedAt > r.Runs/2 {
			fail("tuner settled within 1.5x of the fastest executor at run %d of %d (-1: never) despite a %.1fx margin",
				r.ConvergedAt, r.Runs, r.Margin)
			continue
		}
		if misled := r.Arms[r.Misled].EMANs; misled <= r.settledNs() {
			fail("the misled %s's measured average %v is not above the settled %s's %v",
				tune.ExecutorName(r.Misled), time.Duration(misled), tune.ExecutorName(r.FinalPick), time.Duration(r.settledNs()))
		}
		traj := machine.SimulateTuning(r.Truth, r.Stats, r.Workers, 1, r.Runs,
			tune.Options{InitialCosts: tuningMisledCosts(r.Misled), Seed: r.Seed})
		replay := make([]decision, len(traj.Steps))
		for i, s := range traj.Steps {
			replay[i] = decision{s.Pick, s.Explored}
		}
		if at, _ := settle(replay, r.near); at < 0 || at > r.Runs/2 {
			fail("replayed through the simulator, the truth converges at run %d of %d (-1: never)", at, r.Runs)
		}
	}
	return problems
}

// TuningBenchRecords converts the recovery rows into bench records: NsPerOp
// is the tuned steady state (the settled executor's measured average),
// SeqNsPerOp the counterfactual of staying misled (the misled executor's
// ground truth), and Speedup what the feedback loop bought between them.
func TuningBenchRecords(rows []TuningRow) []BenchRecord {
	records := make([]BenchRecord, 0, len(rows))
	for _, r := range rows {
		rec := BenchRecord{
			Experiment: "tuning",
			Name:       r.Name,
			Workers:    r.Workers,
			NsPerOp:    r.settledNs(),
			SeqNsPerOp: r.Truth[r.Misled],
			Speedup:    r.recovery(),
			Executor:   tune.ExecutorName(r.FinalPick),
		}
		if r.ConvergedAt >= 0 {
			rec.ConvergedAtRun = r.ConvergedAt + 1
		}
		records = append(records, rec)
	}
	return records
}
