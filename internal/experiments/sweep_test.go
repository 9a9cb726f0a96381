package experiments

import (
	"strings"
	"testing"

	"doacross/internal/stencil"
	"doacross/internal/testloop"
)

func TestProcessorSweepTestLoop(t *testing.T) {
	res, err := RunProcessorSweepTestLoop(testloop.Config{N: 2000, M: 5, L: 12}, []int{1, 2, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points", len(res.Points))
	}
	if problems := res.CheckShape(); len(problems) > 0 {
		t.Fatalf("sweep shape violated:\n%s", strings.Join(problems, "\n"))
	}
	// Single processor pays only the overheads, so its efficiency equals the
	// overhead floor and must be the maximum of the series.
	if res.Points[0].Efficiency < res.Points[len(res.Points)-1].Efficiency {
		t.Error("P=1 should have the highest efficiency")
	}
	if _, err := RunProcessorSweepTestLoop(testloop.Config{N: 0, M: 1, L: 1}, []int{1}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestProcessorSweepTrisolve(t *testing.T) {
	res, err := RunProcessorSweepTrisolve(stencil.FivePoint, []int{1, 4, 16, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if problems := res.CheckShape(); len(problems) > 0 {
		t.Fatalf("sweep shape violated:\n%s", strings.Join(problems, "\n"))
	}
	// The reordering advantage should be visible at 16 processors.
	for _, p := range res.Points {
		if p.Processors == 16 && p.ReorderedEff <= p.Efficiency {
			t.Errorf("P=16: reordering should improve the 5-PT solve (%.3f vs %.3f)", p.ReorderedEff, p.Efficiency)
		}
	}
	out := res.AsTable().Text()
	if !strings.Contains(out, "Processor-count sweep") || !strings.Contains(out, "trisolve 5-PT") {
		t.Errorf("text table missing expected content:\n%s", out)
	}
}

func TestSweepCheckShapeDetectsViolations(t *testing.T) {
	r := SweepResult{
		Workload: "trisolve synthetic",
		Points: []SweepPoint{
			{Processors: 1, Efficiency: 0.9, Speedup: 0.9, ReorderedEff: 0.95},
			{Processors: 2, Efficiency: 0.95, Speedup: 0.8, ReorderedEff: 0.5},
		},
	}
	problems := r.CheckShape()
	if len(problems) != 3 {
		t.Fatalf("expected 3 violations, got %d: %v", len(problems), problems)
	}
}
