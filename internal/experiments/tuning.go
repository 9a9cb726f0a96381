package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"doacross"
	"doacross/internal/stencil"
)

// TuningRow is one workload's mis-seeded recovery measurement: the online
// tuner (WithOnlineTuning) is deliberately seeded with coefficients that make
// the cost model prefer the measured-WORST of the two contested executors,
// and the row records how fast measured feedback flips the selection to the
// measured-best one and what the recovery is worth. Ground truth is measured
// on this host (best executor-phase time of each fixed executor), so the row
// is meaningful on any machine — including ones where the busy-wait doacross
// is the pathological arm.
type TuningRow struct {
	Name    string
	Workers int
	// Runs is the tuned run budget; TruthReps the fixed-executor repetitions
	// behind the ground truth.
	Runs      int
	TruthReps int

	// TDoacross and TWavefront are the measured ground truth (best
	// executor-phase time per fixed executor); Best/WorstExecutor name their
	// ordering and Margin = worst/best is how decisive the workload is.
	TDoacross     time.Duration
	TWavefront    time.Duration
	BestExecutor  string
	WorstExecutor string
	Margin        float64

	// MisSeededPick is the tuned runtime's run-0 greedy decision — what the
	// wrong coefficients alone would run forever.
	MisSeededPick string
	// ConvergedAt is the first run from which every later greedy decision
	// picked the measured-best executor (-1: never settled); Explorations
	// counts the deliberate detours and FinalPick names the last greedy
	// decision.
	ConvergedAt  int
	Explorations int
	FinalPick    string

	// TunedEMANs is the settled executor's measured moving average, BestEMANs
	// the fastest measured average of any arm, and RecoverySpeedup the ratio
	// of staying misled (the worst executor's truth time) over the tuned
	// steady state — what the feedback loop bought.
	TunedEMANs      float64
	BestEMANs       float64
	RecoverySpeedup float64

	Checks string
}

// tuningMisledCosts returns seed coefficients whose model prediction prefers
// the named executor on any loop shape, by pricing the other executor's
// synchronization primitive catastrophically. No claim coefficient: the
// dynamic arm is excluded, isolating the contested two-way flip.
func tuningMisledCosts(executor string) doacross.AutoCosts {
	if executor == "doacross" {
		return doacross.AutoCosts{BarrierNs: 1e6, FlagCheckNs: 0.01, IterNs: 100}
	}
	return doacross.AutoCosts{BarrierNs: 0.01, FlagCheckNs: 5000, IterNs: 100}
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

// tuningWorkload is one workload of the tuning experiment.
type tuningWorkload struct {
	name    string
	loop    *doacross.Loop
	dataLen int
	reset   func(y []float64) // reinitialize the data before each run
}

// tuningSeed is the exploration seed of the experiment's tuned runtimes. Seed
// 5's first decision is greedy — the misled pick the experiment asserts on —
// and its first exploration arrives at run 3, early enough to escape the
// wrong arm's lock-in well within the run budget.
const tuningSeed = 5

// RunTuningExperiment measures the online tuner's mis-seeded recovery on the
// chain workload and the paper's SPE2 forward substitution: per workload it
// measures each contested executor's ground truth (best executor-phase time
// of truthReps fixed-executor runs), seeds a tuned Auto runtime against the
// measured-worst one, and records the convergence trajectory over runs tuned
// runs.
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

	const chainN = 512
	workloads := []tuningWorkload{
		{name: fmt.Sprintf("chain n=%d", chainN), loop: tuningChain(chainN), dataLen: chainN},
		{name: "trisolve SPE2", loop: triLoop, dataLen: lf.N,
			reset: func(y []float64) { copy(y, rhs) }},
	}

	rows := make([]TuningRow, 0, len(workloads))
	for _, w := range workloads {
		row, err := runTuningWorkload(w, workers, runs, truthReps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runTuningWorkload measures one workload's row.
func runTuningWorkload(w tuningWorkload, workers, runs, truthReps int) (TuningRow, error) {
	row := TuningRow{Name: w.name, Workers: workers, Runs: runs, TruthReps: truthReps}
	ctx := context.Background()

	// Ground truth: best executor-phase time of each contested executor.
	truthOf := func(kind doacross.ExecutorKind) (time.Duration, error) {
		rt, err := doacross.New(w.dataLen, doacross.WithWorkers(workers), doacross.WithExecutor(kind))
		if err != nil {
			return 0, err
		}
		defer rt.Close()
		y := make([]float64, w.dataLen)
		best := time.Duration(0)
		for rep := 0; rep < truthReps; rep++ {
			if w.reset != nil {
				w.reset(y)
			}
			r, err := rt.Run(ctx, w.loop, y)
			if err != nil {
				return 0, err
			}
			if best == 0 || r.ExecTime < best {
				best = r.ExecTime
			}
		}
		return best, nil
	}
	var err error
	if row.TDoacross, err = truthOf(doacross.Doacross); err != nil {
		return row, err
	}
	if row.TWavefront, err = truthOf(doacross.Wavefront); err != nil {
		return row, err
	}
	row.BestExecutor, row.WorstExecutor = "doacross", "wavefront"
	tBest, tWorst := row.TDoacross, row.TWavefront
	if row.TWavefront < row.TDoacross {
		row.BestExecutor, row.WorstExecutor = "wavefront", "doacross"
		tBest, tWorst = row.TWavefront, row.TDoacross
	}
	if tBest > 0 {
		row.Margin = float64(tWorst) / float64(tBest)
	}

	// The tuned runtime, seeded against the measured-worst executor.
	rt, err := doacross.New(w.dataLen,
		doacross.WithWorkers(workers),
		doacross.WithExecutor(doacross.Auto),
		doacross.WithOnlineTuning(doacross.TuningOptions{
			InitialCosts: tuningMisledCosts(row.WorstExecutor),
			Seed:         tuningSeed,
		}),
	)
	if err != nil {
		return row, err
	}
	defer rt.Close()

	type decision struct {
		executor string
		explored bool
	}
	hist := make([]decision, 0, runs)
	y := make([]float64, w.dataLen)
	for r := 0; r < runs; r++ {
		if w.reset != nil {
			w.reset(y)
		}
		rep, err := rt.Run(ctx, w.loop, y)
		if err != nil {
			return row, err
		}
		hist = append(hist, decision{rep.Executor, rep.Explored})
	}
	if len(hist) > 0 && !hist[0].explored {
		row.MisSeededPick = hist[0].executor
	}
	row.ConvergedAt = -1
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].explored {
			continue
		}
		if hist[i].executor != row.BestExecutor {
			break
		}
		row.ConvergedAt = i
		row.FinalPick = row.BestExecutor
	}
	if row.FinalPick == "" {
		for i := len(hist) - 1; i >= 0; i-- {
			if !hist[i].explored {
				row.FinalPick = hist[i].executor
				break
			}
		}
	}

	snap := rt.TuningSnapshot()
	if len(snap.Plans) != 1 {
		return row, fmt.Errorf("experiments: tuner tracks %d plans for %s, want 1", len(snap.Plans), w.name)
	}
	p := snap.Plans[0]
	row.Explorations = int(p.Explorations)
	emaOf := map[string]doacross.TuningArm{
		"doacross":          p.Doacross,
		"wavefront":         p.Wavefront,
		"wavefront-dynamic": p.WavefrontDynamic,
	}
	for _, arm := range emaOf {
		if arm.Observations > 0 && (row.BestEMANs == 0 || arm.EMANs < row.BestEMANs) {
			row.BestEMANs = arm.EMANs
		}
	}
	if settled, ok := emaOf[row.FinalPick]; ok && settled.Observations > 0 {
		row.TunedEMANs = settled.EMANs
	}
	if row.TunedEMANs > 0 {
		row.RecoverySpeedup = float64(tWorst) / row.TunedEMANs
	}
	return row, nil
}

// FormatTuning renders the recovery table.
func FormatTuning(rows []TuningRow) string {
	var b strings.Builder
	b.WriteString("Online tuning (live): recovery of the mis-seeded Auto selection by measured feedback\n")
	fmt.Fprintf(&b, "%-14s %3s %12s %12s %8s %-10s %-10s %9s %8s %-10s %12s %9s\n",
		"workload", "P", "Tdoacross", "Twavefront", "margin", "best", "misled to", "converged", "explored", "settled on", "tunedEMA", "recovery")
	for _, r := range rows {
		converged := "never"
		if r.ConvergedAt >= 0 {
			converged = fmt.Sprintf("run %d", r.ConvergedAt)
		}
		fmt.Fprintf(&b, "%-14s %3d %12v %12v %7.1fx %-10s %-10s %9s %8d %-10s %12v %8.1fx\n",
			r.Name, r.Workers, r.TDoacross, r.TWavefront, r.Margin,
			r.BestExecutor, r.MisSeededPick, converged, r.Explorations,
			r.FinalPick, time.Duration(int64(r.TunedEMANs)), r.RecoverySpeedup)
	}
	return b.String()
}

// CheckTuning verifies the experiment's qualitative claims. Every row must
// show the mis-seeding took hold (run 0 greedily picked the measured-worst
// executor). A row with a decisive margin (>= 3x between the executors) must
// additionally converge to the measured-best executor within half the run
// budget and recover at least a 2x speedup over staying misled; a row with a
// thin margin only has to settle on an executor whose measured average is
// within 1.5x of the fastest one (close seconds among near-ties pass, a
// catastrophic pick fails).
func CheckTuning(rows []TuningRow) []string {
	var problems []string
	for _, r := range rows {
		if r.MisSeededPick != r.WorstExecutor {
			problems = append(problems, fmt.Sprintf(
				"%s P=%d: run 0 picked %q, but the seed coefficients should mislead it into %q",
				r.Name, r.Workers, r.MisSeededPick, r.WorstExecutor))
			continue
		}
		if r.Margin >= 3 {
			if r.ConvergedAt < 0 {
				problems = append(problems, fmt.Sprintf(
					"%s P=%d: tuner never settled on %q despite a %.1fx margin",
					r.Name, r.Workers, r.BestExecutor, r.Margin))
				continue
			}
			if r.ConvergedAt > r.Runs/2 {
				problems = append(problems, fmt.Sprintf(
					"%s P=%d: tuner settled only at run %d of %d",
					r.Name, r.Workers, r.ConvergedAt, r.Runs))
			}
			if r.FinalPick != r.BestExecutor {
				problems = append(problems, fmt.Sprintf(
					"%s P=%d: tuner settled on %q, measured best is %q",
					r.Name, r.Workers, r.FinalPick, r.BestExecutor))
			}
			if r.RecoverySpeedup < 2 {
				problems = append(problems, fmt.Sprintf(
					"%s P=%d: recovery bought only %.2fx over staying misled",
					r.Name, r.Workers, r.RecoverySpeedup))
			}
		} else if r.BestEMANs > 0 && r.TunedEMANs > 1.5*r.BestEMANs {
			problems = append(problems, fmt.Sprintf(
				"%s P=%d: settled executor's measured average %v is more than 1.5x the fastest measured %v",
				r.Name, r.Workers,
				time.Duration(int64(r.TunedEMANs)), time.Duration(int64(r.BestEMANs))))
		}
	}
	return problems
}

// TuningBenchRecords converts the recovery rows into bench records: NsPerOp
// is the tuned steady state (the settled executor's measured average),
// SeqNsPerOp the counterfactual of staying misled (the worst executor's
// ground truth), and Speedup what the feedback loop bought between them.
func TuningBenchRecords(rows []TuningRow) []BenchRecord {
	records := make([]BenchRecord, 0, len(rows))
	for _, r := range rows {
		rec := BenchRecord{
			Experiment: "tuning",
			Name:       r.Name,
			Workers:    r.Workers,
			NsPerOp:    r.TunedEMANs,
			SeqNsPerOp: float64(tDurationNs(r.TWavefront, r.TDoacross, r.WorstExecutor)),
			Speedup:    r.RecoverySpeedup,
			Executor:   r.FinalPick,
		}
		if r.ConvergedAt >= 0 {
			rec.ConvergedAtRun = r.ConvergedAt + 1
		}
		records = append(records, rec)
	}
	return records
}

// tDurationNs picks the named executor's truth time.
func tDurationNs(wf, da time.Duration, executor string) int64 {
	if executor == "wavefront" {
		return wf.Nanoseconds()
	}
	return da.Nanoseconds()
}

// TuningSettle is the tuning experiment's near-tie run on the paper's
// workload: SPE2's lower factor at 2 workers with all three executors in
// play. A tuned Auto runtime (exploration seed 6) starts from coefficients
// that price barriers catastrophically, so run 0 picks the doacross, and
// measured feedback and exploration take over for the remaining runs.
// CheckTuningSettle bounds where it settles against the measured truth; that
// bound is a host-timing claim, which is why it lives here and not in go
// test (TestOnlineTuningSPE2Trisolve asserts the same run's deterministic
// parts).
type TuningSettle struct {
	Workers, Runs, TruthReps int
	// Truth is each executor's best executor-phase time over TruthReps
	// fixed-executor runs; Fastest is the smallest of them.
	Truth   map[string]time.Duration
	Fastest time.Duration
	// FirstPick is run 0's executor and Settled the last greedy (not
	// explored) pick, empty if every run explored.
	FirstPick string
	Settled   string
	// Plans is the number of plans the tuner tracks after the runs, Arms its
	// per-executor state for the (single) plan.
	Plans int
	Arms  map[string]doacross.TuningArm
}

// tuningSettleCosts are the near-tie run's seed coefficients: barriers
// priced at a millisecond pin run 0 to the doacross, and the claim cost keeps
// the dynamic wavefront in the bandit.
var tuningSettleCosts = doacross.AutoCosts{BarrierNs: 1e6, FlagCheckNs: 0.01, ClaimNs: 25}

// RunTuningSettle measures the near-tie run: 2 workers, 6 truth repetitions
// per executor and 40 tuned runs, whatever the command-line flags say.
func RunTuningSettle() (TuningSettle, error) {
	s := TuningSettle{Workers: 2, Runs: 40, TruthReps: 6, Truth: map[string]time.Duration{}}
	lf, _, err := stencil.LowerFactor(stencil.SPE2, 1)
	if err != nil {
		return s, err
	}
	rhs := stencil.RHS(lf.N, 7)
	loop, err := doacross.TrisolveLoop(lf, rhs)
	if err != nil {
		return s, err
	}
	y := make([]float64, lf.N)
	// runs solves repeat times on rt, calling each with the run's report.
	runs := func(rt *doacross.Runtime, repeat int, each func(doacross.Report)) error {
		for r := 0; r < repeat; r++ {
			copy(y, rhs)
			rep, err := rt.Run(context.Background(), loop, y)
			if err != nil {
				return err
			}
			each(rep)
		}
		return nil
	}

	for _, kind := range []doacross.ExecutorKind{doacross.Doacross, doacross.Wavefront, doacross.WavefrontDynamic} {
		rt, err := doacross.New(lf.N, doacross.WithWorkers(s.Workers), doacross.WithExecutor(kind))
		if err != nil {
			return s, err
		}
		err = runs(rt, s.TruthReps, func(rep doacross.Report) {
			if best, ok := s.Truth[rep.Executor]; !ok || rep.ExecTime < best {
				s.Truth[rep.Executor] = rep.ExecTime
			}
		})
		rt.Close()
		if err != nil {
			return s, err
		}
	}
	for _, d := range s.Truth {
		if s.Fastest == 0 || d < s.Fastest {
			s.Fastest = d
		}
	}

	rt, err := doacross.New(lf.N,
		doacross.WithWorkers(s.Workers),
		doacross.WithExecutor(doacross.Auto),
		doacross.WithOnlineTuning(doacross.TuningOptions{InitialCosts: tuningSettleCosts, Seed: 6}),
	)
	if err != nil {
		return s, err
	}
	defer rt.Close()
	err = runs(rt, s.Runs, func(rep doacross.Report) {
		if s.FirstPick == "" {
			s.FirstPick = rep.Executor
		}
		if !rep.Explored {
			s.Settled = rep.Executor
		}
	})
	if err != nil {
		return s, err
	}
	snap := rt.TuningSnapshot()
	s.Plans = len(snap.Plans)
	if s.Plans > 0 {
		p := snap.Plans[0]
		s.Arms = map[string]doacross.TuningArm{
			"doacross":          p.Doacross,
			"wavefront":         p.Wavefront,
			"wavefront-dynamic": p.WavefrontDynamic,
		}
	}
	return s, nil
}

// String renders the near-tie run as one line under the recovery table.
func (s TuningSettle) String() string {
	return fmt.Sprintf("trisolve SPE2, all three executors, P=%d: truth (best of %d) doacross=%v wavefront=%v dynamic=%v; run 0 %s, settled on %q after %d runs, measured average %v\n",
		s.Workers, s.TruthReps, s.Truth["doacross"], s.Truth["wavefront"], s.Truth["wavefront-dynamic"],
		s.FirstPick, s.Settled, s.Runs, time.Duration(int64(s.Arms[s.Settled].EMANs)))
}

// CheckTuningSettle verifies the near-tie run's host-timing claim: the
// executor the tuner settled on has a measured average within 1.5x of the
// fastest executor's truth (close seconds among near-ties pass, a tuner stuck
// on a catastrophic pick fails).
func CheckTuningSettle(s TuningSettle) []string {
	settled, ok := s.Arms[s.Settled]
	if !ok || settled.Observations == 0 {
		return []string{fmt.Sprintf("trisolve SPE2 P=%d: settled executor %q was never observed", s.Workers, s.Settled)}
	}
	if limit := 1.5 * float64(s.Fastest); settled.EMANs > limit {
		return []string{fmt.Sprintf("trisolve SPE2 P=%d: tuner settled on %q with measured average %v, more than 1.5x the fastest executor's %v",
			s.Workers, s.Settled, time.Duration(int64(settled.EMANs)), s.Fastest)}
	}
	return nil
}
