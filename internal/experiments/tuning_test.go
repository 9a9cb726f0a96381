package experiments

import (
	"strings"
	"testing"

	"doacross"
	"doacross/internal/machine"
	"doacross/internal/tune"
)

// tuningArms returns tuner state with five observations of each given
// moving average, indexed by tune arm.
func tuningArms(emaNs ...float64) (a [tune.NumExecutors]doacross.TuningArm) {
	for e, ns := range emaNs {
		a[e] = doacross.TuningArm{Observations: 5, EMANs: ns}
	}
	return a
}

// TestCheckTuningClaims pins the three-arm claim logic on synthetic decisive
// rows: each is held to convergence within 1.5x of the fastest truth by half
// the budget, to its misled executor's moving average staying above the
// settled one's, and to the simulator replay of its truth converging by the
// same rule; a row whose run-0 pick ignored the mis-seeding fails outright.
func TestCheckTuningClaims(t *testing.T) {
	rt, err := doacross.New(512, doacross.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	chainStats, err := rt.Inspect(tuningChain(512))
	if err != nil {
		t.Fatal(err)
	}
	decisive := TuningRow{
		Name: "chain n=512", Workers: 4, Runs: 30, TruthReps: 3, Seed: tuningSeed,
		Truth:  machine.TuningTruth{80e6, 40e3, 52e3},
		Misled: tune.Doacross, Margin: 2000,
		MisSeededPick: tune.Doacross, ConvergedAt: 4, Explorations: 3, FinalPick: tune.Wavefront,
		Arms: tuningArms(80e6, 45e3, 55e3), Stats: chainStats,
	}
	if problems := CheckTuning([]TuningRow{decisive}); len(problems) != 0 {
		t.Fatalf("decisive recovery flagged: %v", problems)
	}
	// Settling on the dynamic wavefront, a near second to the static one, is
	// a converged decisive row too, live and in the replay.
	dynamic := decisive
	dynamic.Truth = machine.TuningTruth{80e6, 40e3, 44e3}
	dynamic.FinalPick, dynamic.Arms = tune.WavefrontDynamic, tuningArms(80e6, 47e3, 45e3)
	if problems := CheckTuning([]TuningRow{dynamic}); len(problems) != 0 {
		t.Fatalf("decisive settle on the near-tied dynamic arm flagged: %v", problems)
	}

	never := decisive
	never.ConvergedAt, never.FinalPick = -1, tune.Doacross
	late := decisive
	late.ConvergedAt = 20
	// The misled executor's measured average is not above the settled one's.
	contradicted := decisive
	contradicted.Arms = tuningArms(45e3, 45e3, 55e3)
	// A budget that ends before seed 5's first exploration (run 3): the
	// replayed trajectory never leaves the misled arm, although the live
	// fields claim an early convergence.
	shortBudget := decisive
	shortBudget.Runs, shortBudget.ConvergedAt = 3, 1
	for name, row := range map[string]TuningRow{
		"never converged": never, "late convergence": late,
		"averages contradict the truth": contradicted,
		"simulator does not converge":   shortBudget,
	} {
		if problems := CheckTuning([]TuningRow{row}); len(problems) == 0 {
			t.Errorf("%s: no violation reported for %+v", name, row)
		}
	}

	unmisled := decisive
	unmisled.MisSeededPick = tune.Wavefront
	if problems := CheckTuning([]TuningRow{unmisled}); len(problems) == 0 {
		t.Errorf("ignored mis-seeding not flagged: %+v", unmisled)
	}
}

// TestCheckTuningSettleClaims pins the near-tie bound on synthetic thin rows
// (misled margin below 3x): a settled executor whose moving average is
// within 1.5x of the lowest observed average passes, one beyond it fails, and
// a row with no settled executor fails. Only the moving averages decide,
// not the truth.
func TestCheckTuningSettleClaims(t *testing.T) {
	nearTie := TuningRow{
		Name: "trisolve SPE2", Workers: 2, Runs: 30, Seed: tuningSeed,
		Truth:  machine.TuningTruth{160e3, 180e3, 240e3},
		Misled: tune.Wavefront, Margin: 1.125,
		MisSeededPick: tune.Wavefront, ConvergedAt: -1, FinalPick: tune.Wavefront,
		Arms: tuningArms(158e3, 181e3, 250e3),
	}
	if problems := CheckTuning([]TuningRow{nearTie}); len(problems) != 0 {
		t.Fatalf("near-tie second place flagged: %v", problems)
	}
	stuck := nearTie
	stuck.FinalPick, stuck.Arms = tune.WavefrontDynamic, tuningArms(158e3, 181e3, 2.5e6)
	if problems := CheckTuning([]TuningRow{stuck}); len(problems) == 0 {
		t.Errorf("catastrophic near-tie pick not flagged: %+v", stuck)
	}
	unobserved := nearTie
	unobserved.FinalPick = -1
	if problems := CheckTuning([]TuningRow{unobserved}); len(problems) == 0 {
		t.Errorf("thin row with no settled executor not flagged")
	}
	// A CI failure of the earlier truth-against-moving-average check: the
	// tuner settled on the doacross, the fastest executor by the truth,
	// whose 40-run average had swung to 309us; the thin-row bound compares
	// it with the lowest average, the wavefront's 230us.
	swung := TuningRow{
		Name: "trisolve SPE2 near-tie", Workers: 2, Runs: 40, TruthReps: 6, Seed: 6,
		Truth:  machine.TuningTruth{192e3, 204e3, 422e3},
		Misled: tune.Wavefront, Margin: 204.0 / 192,
		MisSeededPick: tune.Wavefront, ConvergedAt: 10, FinalPick: tune.Doacross,
		Arms: tuningArms(309e3, 230e3, 450e3),
	}
	if problems := CheckTuning([]TuningRow{swung}); len(problems) != 0 {
		t.Errorf("settle on the fastest executor flagged for its moving average: %v", problems)
	}
}

// TestTuningBenchRecords pins the JSON mapping: the converged run is 1-based
// with 0 reserved for "never", and the speedup is the misled-counterfactual
// recovery.
func TestTuningBenchRecords(t *testing.T) {
	rows := []TuningRow{
		{Name: "chain n=512", Workers: 4, Truth: machine.TuningTruth{80e6, 40e3, 50e3},
			Misled: tune.Doacross, FinalPick: tune.Wavefront, ConvergedAt: 4,
			Arms: [tune.NumExecutors]doacross.TuningArm{tune.Wavefront: {Observations: 20, EMANs: 40e3}}},
		{Name: "trisolve SPE2", Workers: 2, Truth: machine.TuningTruth{160e3, 180e3, 200e3},
			Misled: tune.Wavefront, FinalPick: tune.Doacross, ConvergedAt: -1,
			Arms: [tune.NumExecutors]doacross.TuningArm{tune.Doacross: {Observations: 20, EMANs: 161e3}}},
	}
	records := TuningBenchRecords(rows)
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	if records[0].Experiment != "tuning" || records[0].ConvergedAtRun != 5 || records[0].Executor != "wavefront" {
		t.Fatalf("converged record: %+v", records[0])
	}
	if records[0].SeqNsPerOp != 80e6 || records[0].NsPerOp != 40e3 || records[0].Speedup != 2000 {
		t.Fatalf("misled counterfactual mapping: %+v", records[0])
	}
	if records[1].ConvergedAtRun != 0 {
		t.Fatalf("never-converged record must omit the run index: %+v", records[1])
	}
	if records[1].SeqNsPerOp != 180e3 {
		t.Fatalf("misled-executor truth mapping: %+v", records[1])
	}
}

// TestRunTuningExperimentSmoke is the live smoke: a small-budget run must
// produce the three rows with measured truth for every executor, a
// mis-seeded first pick and a formatted table, whatever this host's executor
// ordering is; the near-tie row keeps its fixed budget.
func TestRunTuningExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live measurement skipped in -short mode")
	}
	rows, err := RunTuningExperiment(2, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		for e, ns := range r.Truth {
			if ns <= 0 {
				t.Fatalf("%s: missing %s ground truth: %+v", r.Name, tune.ExecutorName(e), r)
			}
		}
		if r.MisSeededPick != r.Misled {
			t.Errorf("%s: run 0 picked %q, want the mis-seeded %q", r.Name,
				tune.ExecutorName(r.MisSeededPick), tune.ExecutorName(r.Misled))
		}
		if r.FinalPick < 0 || r.settledNs() <= 0 {
			t.Fatalf("%s: no settled measurement: %+v", r.Name, r)
		}
	}
	if r := rows[2]; r.Workers != 2 || r.Runs != 40 || r.TruthReps != 6 || r.Seed != 6 {
		t.Errorf("near-tie row budget %d workers, %d runs, %d reps, seed %d; want 2, 40, 6, 6",
			r.Workers, r.Runs, r.TruthReps, r.Seed)
	}
	out := FormatTuning(rows)
	for _, name := range []string{"chain n=512", "trisolve SPE2", "trisolve SPE2 near-tie"} {
		if !strings.Contains(out, name) {
			t.Errorf("format output missing %s:\n%s", name, out)
		}
	}
}
