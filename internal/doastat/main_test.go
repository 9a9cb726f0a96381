package doastat

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// golden runs doastat with args and compares its stdout against the golden
// file, rewriting it under -update.
func golden(t *testing.T, name string, args []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := Main(args, &stdout, &stderr); code != 0 {
		t.Fatalf("Main(%v) = %d, stderr: %s", args, code, stderr.String())
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, stdout.Bytes(), want)
	}
}

// TestGoldenTestloop pins the text report for a small Figure 4 test loop,
// including the new structure lines (stall weight, schedule rounds, read
// imbalance), the cost-model predictions with Auto's pick, the repair
// break-even section, the doconsider ordering table and the parallelism
// profile.
func TestGoldenTestloop(t *testing.T) {
	golden(t, "testloop_n200_m3_l6.golden", []string{"-kind", "testloop", "-n", "200", "-m", "3", "-l", "6"})
}

// TestGoldenTrisolve5PT pins the report for the fixed 5-point stencil
// substitution — a fully deterministic workload, so any output drift is a
// real behaviour change in the plan machinery or the report format.
func TestGoldenTrisolve5PT(t *testing.T) {
	golden(t, "trisolve_5pt.golden", []string{"-kind", "trisolve", "-problem", "5-PT"})
}

// TestGoldenMatrix pins the reports for both triangles of the committed
// MatrixMarket fixture, exercising the reader, the triangle extraction and
// the backward-substitution graph.
func TestGoldenMatrix(t *testing.T) {
	golden(t, "chain8_lower.golden", []string{"-kind", "matrix", "-matrix", "testdata/chain8.mtx", "-tri", "lower"})
	golden(t, "chain8_upper.golden", []string{"-kind", "matrix", "-matrix", "testdata/chain8.mtx", "-tri", "upper"})
}

// TestGoldenJSON pins the exported plan documents. The JSON golden doubles
// as the input fixture for TestGoldenPlanImport below, so an export-side
// schema change shows up as a diff here and exercises the import side there.
func TestGoldenJSON(t *testing.T) {
	golden(t, "testloop_n24_m2_l4.json", []string{"-kind", "testloop", "-n", "24", "-m", "2", "-l", "4", "-format", "json"})
	golden(t, "chain8_lower.json", []string{"-kind", "matrix", "-matrix", "testdata/chain8.mtx", "-format", "json"})
}

// TestGoldenPlanImport pins the text report rendered from a previously
// exported document: the plan round-trips through the JSON schema and the
// report is rebuilt from the document alone (note the "built for N workers"
// title and the recorded worker count driving the predictions).
func TestGoldenPlanImport(t *testing.T) {
	golden(t, "plan_import.golden", []string{"-kind", "plan", "-plan", "testdata/testloop_n24_m2_l4.json"})
}

// TestGoldenDOT pins the Graphviz rendering: one rank=same cluster per
// wavefront level, edges in canonical (ascending) order.
func TestGoldenDOT(t *testing.T) {
	golden(t, "testloop_n24_m2_l4.dot", []string{"-kind", "testloop", "-n", "24", "-m", "2", "-l", "4", "-format", "dot"})
	golden(t, "chain8_lower.dot", []string{"-kind", "matrix", "-matrix", "testdata/chain8.mtx", "-format", "dot"})
}

// TestJSONDeterministic runs the same export twice and demands identical
// bytes — the property the committed JSON goldens (and any diff-based
// tooling on top of them) rely on.
func TestJSONDeterministic(t *testing.T) {
	args := []string{"-kind", "trisolve", "-problem", "5-PT", "-format", "json"}
	var first, second, stderr bytes.Buffer
	if code := Main(args, &first, &stderr); code != 0 {
		t.Fatalf("first run failed: %d, %s", code, stderr.String())
	}
	if code := Main(args, &second, &stderr); code != 0 {
		t.Fatalf("second run failed: %d, %s", code, stderr.String())
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two identical exports produced different bytes")
	}
}

// TestBadFlags pins the error paths: every bad invocation exits nonzero
// without touching stdout. Flag-parse errors exit 2 (the flag package's
// convention); semantic errors exit 1.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-n", "notanumber"}, 2},
		{[]string{"-kind", "nosuch"}, 1},
		{[]string{"-kind", "trisolve", "-problem", "nosuch"}, 1},
		{[]string{"-kind", "testloop", "-n", "-3"}, 1},
		{[]string{"-format", "yaml"}, 1},
		{[]string{"-workers", "0"}, 1},
		{[]string{"-nrhs", "0"}, 1},
		{[]string{"-kind", "matrix"}, 1},                                                       // no -matrix
		{[]string{"-kind", "matrix", "-matrix", "testdata/nosuch.mtx"}, 1},                     // unreadable file
		{[]string{"-kind", "matrix", "-matrix", "testdata/chain8.mtx", "-tri", "diagonal"}, 1}, // unknown triangle
		{[]string{"-kind", "plan"}, 1},                                                         // no -plan
		{[]string{"-kind", "plan", "-plan", "testdata/nosuch.json"}, 1},                        // unreadable plan
		{[]string{"-kind", "plan", "-plan", "testdata/chain8.mtx"}, 1},                         // not a plan document
		{[]string{"-format", "dot"}, 1},                                                        // default N=10000 exceeds the DOT node cap
		{[]string{"-barrier-ns", "-5"}, 1},
		{[]string{"-flagcheck-ns", "0"}, 1},
		{[]string{"-barrier-ns", "NaN"}, 1},
		{[]string{"-claim-ns", "-3"}, 1},
		{[]string{"-claim-ns", "0"}, 1},
		{[]string{"-iter-ns", "Inf"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := Main(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("Main(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("Main(%v) wrote to stdout on failure: %q", tc.args, stdout.String())
		}
	}
}
