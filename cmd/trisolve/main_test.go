package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestSingleSolverPrintsSpeedup runs one non-sequential solver on its own: its
// speedup and efficiency are taken against the sequential reference solve,
// which the command always times, so they must not print as zero. One worker
// keeps the printed figures well above the two-decimal rounding however
// busy the host is (no worker ever waits on a descheduled one).
func TestSingleSolverPrintsSpeedup(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-problem", "SPE2", "-solver", "doacross-linear", "-workers", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 || fields[0] != "doacross-linear" {
			continue
		}
		if fields[4] != "ok" {
			t.Fatalf("doacross-linear check = %q, want ok:\n%s", fields[4], out.String())
		}
		for _, f := range fields[2:4] {
			if v, err := strconv.ParseFloat(f, 64); err != nil || v <= 0 {
				t.Fatalf("doacross-linear speedup/eff %q is not positive:\n%s", f, out.String())
			}
		}
		return
	}
	t.Fatalf("no doacross-linear row in the output:\n%s", out.String())
}
