package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file with the current output")

// TestGoldenPaperExperiments pins every deterministic paper experiment —
// Figure 6, Table 1, the overhead, blocked, linear-subscript and ordering
// ablations and the processor sweep — at doabench's defaults, exactly as
// doabench prints them with -check. The simulator, the level decompositions
// and the cost model behind these tables are host-independent, so any diff
// is a behaviour change; regenerate with go test ./cmd/doabench -update only
// when the change is intended.
func TestGoldenPaperExperiments(t *testing.T) {
	var out bytes.Buffer
	violations, err := run([]string{"-experiment", "fig6,table1,overhead,blocked,linear,ordering,sweep", "-json", "", "-check"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Errorf("%d qualitative claims violated:\n%s", violations, out.Bytes())
	}
	path := filepath.Join("testdata", "paper_experiments.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, out.Bytes(), want)
	}
}
