package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"doacross"
	"doacross/internal/stencil"
	"doacross/internal/tune"
)

func TestExecutorSweepAndBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("live measurement skipped in -short mode")
	}
	rows, err := RunExecutorSweep([]stencil.Problem{stencil.SPE2}, []int{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if problems := CheckExecutorSweep(rows); len(problems) > 0 {
		t.Fatalf("sweep violations: %v", problems)
	}
	for k, e := range r.Exec {
		if e.T <= 0 || e.ColdInspect <= 0 {
			t.Fatalf("%v not measured: %+v", doacross.ExecutorKind(k), e)
		}
	}
	if r.Exec[doacross.Wavefront].Levels == 0 || r.AutoPicked == "" {
		t.Fatalf("implausible row: %+v", r)
	}
	out := FormatExecutorSweep(rows)
	for k := range r.Exec {
		if name := doacross.ExecutorKind(k).String(); !strings.Contains(out, name) || !strings.Contains(out, "SPE2") {
			t.Errorf("format output missing %s:\n%s", name, out)
		}
	}

	// Exactly the three arm keys per row, in arm order, each with the row's
	// Auto pick and calibrated coefficients.
	records := ExecutorBenchRecords(rows)
	if len(records) != tune.NumExecutors {
		t.Fatalf("got %d records, want %d (one per arm)", len(records), tune.NumExecutors)
	}
	for k, rec := range records {
		if rec.Experiment != "executors" || rec.Name != "trisolve SPE2" || rec.Workers != 2 || rec.Executor != tune.ExecutorName(k) {
			t.Fatalf("record %d key: %+v", k, rec)
		}
		if rec.NsPerOp <= 0 || rec.AutoPicked != r.AutoPicked || rec.AutoClaimNs != r.AutoCosts.ClaimNs || rec.AutoBarrierNs <= 0 {
			t.Fatalf("record %d: %+v", k, rec)
		}
	}
	if wf := records[tune.Wavefront]; wf.WaitPolls != 0 || wf.ColdInspectNs <= 0 || wf.Levels == 0 {
		t.Fatalf("wavefront record: %+v", wf)
	}

	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := WriteBenchJSON(path, records); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("BENCH_results.json is not valid JSON: %v", err)
	}
	if f.Schema != 1 || len(f.Records) != tune.NumExecutors || f.Records[0].NsPerOp <= 0 {
		t.Fatalf("unexpected bench file: %+v", f)
	}
}

// TestCheckExecutorSweepClaims pins CheckExecutorSweep on synthetic rows:
// a consistent row passes, and each broken claim is reported.
func TestCheckExecutorSweepClaims(t *testing.T) {
	good := func() ExecutorSweepRow {
		r := ExecutorSweepRow{
			Problem:    "SPE2",
			Workers:    2,
			Checks:     "results match",
			AutoPicked: "wavefront",
			AutoCosts:  doacross.AutoCosts{BarrierNs: 200, FlagCheckNs: 6, ClaimNs: 10},
			Predicted:  [tune.NumExecutors]float64{300e3, 200e3, 250e3},
		}
		r.Exec[doacross.Doacross] = ExecutorResult{T: time.Millisecond, Waits: 40}
		for _, k := range []doacross.ExecutorKind{doacross.Wavefront, doacross.WavefrontDynamic, doacross.Auto} {
			r.Exec[k] = ExecutorResult{T: time.Millisecond, Levels: 90, WarmCached: true}
		}
		return r
	}
	if problems := CheckExecutorSweep([]ExecutorSweepRow{good()}); len(problems) != 0 {
		t.Fatalf("consistent row reported: %v", problems)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*ExecutorSweepRow)
		want   string
	}{
		{"wrong result", func(r *ExecutorSweepRow) { r.Checks = "RESULT MISMATCH (max diff 1e-3)" }, "RESULT MISMATCH"},
		{"cache miss", func(r *ExecutorSweepRow) { r.Exec[doacross.WavefrontDynamic].WarmCached = false }, "wavefront-dynamic warm solve missed"},
		{"level executor waited", func(r *ExecutorSweepRow) { r.Exec[doacross.Wavefront].Waits = 3 }, "wavefront ran levels but busy-waited"},
		{"no claim cost", func(r *ExecutorSweepRow) { r.AutoCosts.ClaimNs = 0 }, "no calibrated costs"},
		{"no barrier cost", func(r *ExecutorSweepRow) { r.AutoCosts.BarrierNs = 0 }, "no calibrated costs"},
		{"pick against predictions", func(r *ExecutorSweepRow) { r.AutoPicked = "doacross" }, "predictions favor wavefront"},
	} {
		r := good()
		tc.mutate(&r)
		problems := CheckExecutorSweep([]ExecutorSweepRow{r})
		if len(problems) != 1 || !strings.Contains(problems[0], tc.want) {
			t.Errorf("%s: problems %v, want one containing %q", tc.name, problems, tc.want)
		}
	}
}

func TestLiveBenchRecords(t *testing.T) {
	recs := LiveBenchRecords([]LiveResult{{Name: "w", Workers: 3, TSeq: 20, TPar: 10, Speedup: 2}})
	if len(recs) != 1 || recs[0].Experiment != "live" || recs[0].NsPerOp != 10 || recs[0].Speedup != 2 {
		t.Fatalf("unexpected records: %+v", recs)
	}
}
