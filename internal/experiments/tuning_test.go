package experiments

import (
	"strings"
	"testing"
	"time"

	"doacross"
)

// TestCheckTuningClaims pins the claim logic on synthetic rows: a decisive
// row is held to convergence, final-pick and recovery claims, a thin-margin
// row only to the 1.5x near-tie bound, and a row whose run-0 pick ignored the
// mis-seeding fails outright.
func TestCheckTuningClaims(t *testing.T) {
	decisive := TuningRow{
		Name: "chain n=512", Workers: 4, Runs: 30, TruthReps: 3,
		TDoacross: 80 * time.Millisecond, TWavefront: 40 * time.Microsecond,
		BestExecutor: "wavefront", WorstExecutor: "doacross", Margin: 2000,
		MisSeededPick: "doacross", ConvergedAt: 4, Explorations: 3,
		FinalPick: "wavefront", TunedEMANs: 45_000, BestEMANs: 45_000,
		RecoverySpeedup: 1777,
	}
	if problems := CheckTuning([]TuningRow{decisive}); len(problems) != 0 {
		t.Fatalf("decisive recovery flagged: %v", problems)
	}

	never := decisive
	never.ConvergedAt, never.FinalPick = -1, "doacross"
	late := decisive
	late.ConvergedAt = 20
	wrongArm := decisive
	wrongArm.FinalPick = "doacross"
	thinRecovery := decisive
	thinRecovery.RecoverySpeedup = 1.2
	for name, row := range map[string]TuningRow{
		"never converged": never, "late convergence": late,
		"wrong final pick": wrongArm, "thin recovery": thinRecovery,
	} {
		if problems := CheckTuning([]TuningRow{row}); len(problems) == 0 {
			t.Errorf("%s: no violation reported for %+v", name, row)
		}
	}

	nearTie := TuningRow{
		Name: "trisolve SPE2", Workers: 2, Runs: 30,
		TDoacross: 160 * time.Microsecond, TWavefront: 180 * time.Microsecond,
		BestExecutor: "doacross", WorstExecutor: "wavefront", Margin: 1.1,
		MisSeededPick: "wavefront", ConvergedAt: -1,
		FinalPick: "wavefront", TunedEMANs: 181_000, BestEMANs: 158_000,
	}
	if problems := CheckTuning([]TuningRow{nearTie}); len(problems) != 0 {
		t.Fatalf("near-tie second place flagged: %v", problems)
	}
	stuck := nearTie
	stuck.TunedEMANs = 10 * nearTie.BestEMANs
	if problems := CheckTuning([]TuningRow{stuck}); len(problems) == 0 {
		t.Errorf("catastrophic near-tie pick not flagged: %+v", stuck)
	}

	unmisled := decisive
	unmisled.MisSeededPick = "wavefront"
	if problems := CheckTuning([]TuningRow{unmisled}); len(problems) == 0 {
		t.Errorf("ignored mis-seeding not flagged: %+v", unmisled)
	}
}

// TestTuningBenchRecords pins the JSON mapping: the converged run is 1-based
// with 0 reserved for "never", and the speedup is the misled-counterfactual
// recovery.
func TestTuningBenchRecords(t *testing.T) {
	rows := []TuningRow{
		{Name: "chain n=512", Workers: 4, TDoacross: 80 * time.Millisecond,
			TWavefront: 40 * time.Microsecond, WorstExecutor: "doacross",
			FinalPick: "wavefront", ConvergedAt: 4, TunedEMANs: 45_000, RecoverySpeedup: 1777},
		{Name: "trisolve SPE2", Workers: 2, TDoacross: 160 * time.Microsecond,
			TWavefront: 180 * time.Microsecond, WorstExecutor: "wavefront",
			FinalPick: "doacross", ConvergedAt: -1, TunedEMANs: 161_000},
	}
	records := TuningBenchRecords(rows)
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	if records[0].Experiment != "tuning" || records[0].ConvergedAtRun != 5 {
		t.Fatalf("converged record: %+v", records[0])
	}
	if records[0].SeqNsPerOp != 80_000_000 || records[0].Speedup != 1777 {
		t.Fatalf("misled counterfactual mapping: %+v", records[0])
	}
	if records[1].ConvergedAtRun != 0 {
		t.Fatalf("never-converged record must omit the run index: %+v", records[1])
	}
	if records[1].SeqNsPerOp != 180_000 {
		t.Fatalf("worst-executor truth mapping: %+v", records[1])
	}
}

// TestRunTuningExperimentSmoke is the live smoke: a small-budget run must
// produce both workload rows with measured truth, a mis-seeded first pick and
// a formatted table, whatever this host's executor ordering is.
func TestRunTuningExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live measurement skipped in -short mode")
	}
	rows, err := RunTuningExperiment(2, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.TDoacross <= 0 || r.TWavefront <= 0 {
			t.Fatalf("%s: missing ground truth: %+v", r.Name, r)
		}
		if r.MisSeededPick != r.WorstExecutor {
			t.Errorf("%s: run 0 picked %q, want the mis-seeded %q", r.Name, r.MisSeededPick, r.WorstExecutor)
		}
		if r.FinalPick == "" || r.BestEMANs <= 0 {
			t.Fatalf("%s: no settled measurement: %+v", r.Name, r)
		}
	}
	out := FormatTuning(rows)
	if !strings.Contains(out, "chain n=512") || !strings.Contains(out, "trisolve SPE2") {
		t.Errorf("format output missing workloads:\n%s", out)
	}
}

// TestCheckTuningSettleClaims pins the near-tie bound on synthetic runs: a
// settled executor within 1.5x of the fastest truth passes, one beyond it
// fails, and a settled executor the tuner never observed fails.
func TestCheckTuningSettleClaims(t *testing.T) {
	s := TuningSettle{
		Workers: 2, Runs: 40, TruthReps: 6,
		Truth: map[string]time.Duration{
			"doacross": 300 * time.Microsecond, "wavefront": 320 * time.Microsecond, "wavefront-dynamic": 540 * time.Microsecond,
		},
		Fastest: 300 * time.Microsecond, FirstPick: "doacross", Settled: "wavefront", Plans: 1,
		Arms: map[string]doacross.TuningArm{
			"doacross":          {Observations: 5, EMANs: 310_000},
			"wavefront":         {Observations: 30, EMANs: 440_000},
			"wavefront-dynamic": {Observations: 5, EMANs: 560_000},
		},
	}
	if problems := CheckTuningSettle(s); len(problems) != 0 {
		t.Fatalf("near-tie settle within 1.5x flagged: %v", problems)
	}
	stuck := s
	stuck.Settled = "wavefront-dynamic"
	if problems := CheckTuningSettle(stuck); len(problems) == 0 {
		t.Errorf("settle at %v over a fastest %v not flagged", stuck.Arms["wavefront-dynamic"].EMANs, s.Fastest)
	}
	unobserved := s
	unobserved.Settled = ""
	if problems := CheckTuningSettle(unobserved); len(problems) == 0 {
		t.Errorf("unobserved settled executor not flagged")
	}
}
