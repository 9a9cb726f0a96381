package experiments

import (
	"strings"
	"testing"

	"doacross/internal/stencil"
	"doacross/internal/testloop"
)

func TestOverheadAblation(t *testing.T) {
	rows, err := RunOverheadAblation(2000, []int{1, 5}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if !(r.DoallEff > r.ChecksOnlyEff && r.ChecksOnlyEff > r.FullDoacrossEff) {
			t.Errorf("M=%d: overhead layers should strictly reduce efficiency: doall %.3f, checks %.3f, full %.3f",
				r.M, r.DoallEff, r.ChecksOnlyEff, r.FullDoacrossEff)
		}
		if r.DoallEff < 0.95 {
			t.Errorf("M=%d: ideal doall efficiency %.3f should be ~1", r.M, r.DoallEff)
		}
		if r.InspectorShare <= 0 || r.PostprocessShare <= 0 {
			t.Errorf("M=%d: phase shares should be positive", r.M)
		}
	}
	// The overhead floor hurts M=1 more than M=5 (less work to amortize it).
	if rows[0].FullDoacrossEff >= rows[1].FullDoacrossEff {
		t.Errorf("M=1 floor %.3f should be below M=5 floor %.3f", rows[0].FullDoacrossEff, rows[1].FullDoacrossEff)
	}
	if out := FormatOverhead(rows); !strings.Contains(out, "Ablation A") {
		t.Error("FormatOverhead missing title")
	}
}

func TestOrderingAblation(t *testing.T) {
	rows, err := RunOrderingAblation([]stencil.Problem{stencil.FivePoint}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 strategies", len(rows))
	}
	var natural, level float64
	for _, r := range rows {
		switch r.Strategy.String() {
		case "natural":
			natural = r.Efficiency
		case "level":
			level = r.Efficiency
		}
		if r.Efficiency <= 0 || r.Efficiency > 1 {
			t.Errorf("%v/%v: implausible efficiency %.3f", r.Problem, r.Strategy, r.Efficiency)
		}
	}
	if level <= natural {
		t.Errorf("level ordering (%.3f) should beat natural order (%.3f) on 5-PT", level, natural)
	}
	if out := FormatOrdering(rows); !strings.Contains(out, "Ablation E") {
		t.Error("FormatOrdering missing title")
	}
}

func TestBlockedAblation(t *testing.T) {
	tc := testloop.Config{N: 4000, M: 1, L: 12}
	rows, err := RunBlockedAblation(tc, []int{125, 500, 2000, 4000}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Larger blocks mean less frequent global synchronization, so efficiency
	// must not decrease, while scratch memory grows.
	for i := 1; i < len(rows); i++ {
		if rows[i].Efficiency+1e-9 < rows[i-1].Efficiency {
			t.Errorf("block %d: efficiency %.3f below smaller block's %.3f",
				rows[i].BlockSize, rows[i].Efficiency, rows[i-1].Efficiency)
		}
		if rows[i].ScratchFraction < rows[i-1].ScratchFraction {
			t.Error("scratch fraction should grow with block size")
		}
	}
	if rows[len(rows)-1].ScratchFraction != 1 {
		t.Error("full-size block should need the full scratch arrays")
	}
	if _, err := RunBlockedAblation(tc, []int{0}, 16); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := RunBlockedAblation(testloop.Config{N: 0, M: 1, L: 1}, []int{1}, 16); err == nil {
		t.Error("invalid loop config accepted")
	}
	if out := FormatBlocked(rows); !strings.Contains(out, "Ablation B") {
		t.Error("FormatBlocked missing title")
	}
}

func TestLinearAblation(t *testing.T) {
	rows, err := RunLinearAblation(2000, 1, []int{1, 8, 14}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.LinearEff < r.InspectorEff {
			t.Errorf("L=%d: linear-subscript variant (%.3f) should never be slower than the inspector variant (%.3f)",
				r.L, r.LinearEff, r.InspectorEff)
		}
		if r.InspectorPreTime <= 0 {
			t.Errorf("L=%d: inspector variant should spend time preprocessing", r.L)
		}
	}
	if _, err := RunLinearAblation(100, 1, []int{99}, 16); err == nil {
		t.Error("invalid L accepted")
	}
	if out := FormatLinear(rows); !strings.Contains(out, "Ablation C") {
		t.Error("FormatLinear missing title")
	}
}

func TestLiveTestLoopMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("live measurement skipped in -short mode")
	}
	res, err := RunLiveTestLoop(testloop.Config{N: 5000, M: 5, L: 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TSeq <= 0 || res.TPar <= 0 {
		t.Fatalf("non-positive times: %+v", res)
	}
	if res.Checks != "results match" {
		t.Fatalf("live doacross produced wrong results: %s", res.Checks)
	}
	if res.String() == "" {
		t.Error("empty live result string")
	}
	if _, err := RunLiveTestLoop(testloop.Config{N: 0, M: 1, L: 1}, 2, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestLiveTestLoopScalesWithHeavyBody runs the live scaling claim's row and
// checks its result. The claim's speedup bound is host timing, so it is
// checked by doabench -experiment live -check (CheckLive), not here.
func TestLiveTestLoopScalesWithHeavyBody(t *testing.T) {
	if testing.Short() {
		t.Skip("live scaling test skipped in -short mode")
	}
	res, err := RunLiveScaling()
	if err != nil {
		t.Fatal(err)
	}
	if res.Checks != "results match" {
		t.Fatalf("heavy-body doacross produced wrong results: %s", res.Checks)
	}
}

// TestCheckLiveClaims feeds CheckLive rows that break each claim.
func TestCheckLiveClaims(t *testing.T) {
	good := LiveResult{Name: "ok", Workers: 2, Speedup: 1.9, Checks: "results match"}
	if p := CheckLive([]LiveResult{good}, good); len(p) != 0 {
		t.Errorf("good rows flagged: %v", p)
	}
	bad := good
	bad.Checks = "MISMATCH"
	if p := CheckLive([]LiveResult{good, bad}, good); len(p) != 1 {
		t.Errorf("wrong-result row: %v, want one violation", p)
	}
	slow := good
	slow.Speedup = 1.1
	want := 0
	if DefaultLiveWorkers() >= 2 {
		want = 1
	}
	if p := CheckLive([]LiveResult{slow}, slow); len(p) != want {
		t.Errorf("speedup 1.1 on %d hardware threads: %v, want %d violations", DefaultLiveWorkers(), p, want)
	}
}

func TestLiveTrisolveMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("live measurement skipped in -short mode")
	}
	for _, variant := range TrisolveVariants {
		res, err := RunLiveTrisolve(stencil.FivePoint, 2, 1, variant)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checks != "results match" {
			t.Fatalf("%v: live solve produced wrong results: %s", variant, res.Checks)
		}
	}
	out := FormatLive([]LiveResult{{Name: "x", Workers: 1}})
	if !strings.Contains(out, "Live (goroutine)") {
		t.Error("FormatLive missing title")
	}
}

func TestCheckClose(t *testing.T) {
	if got := checkClose([]float64{1, 2}, []float64{1, 2}); got != "results match" {
		t.Errorf("checkClose equal = %q", got)
	}
	if got := checkClose([]float64{1}, []float64{1, 2}); got != "LENGTH MISMATCH" {
		t.Errorf("checkClose length = %q", got)
	}
	if got := checkClose([]float64{1, 2}, []float64{1, 3}); !strings.Contains(got, "MISMATCH") {
		t.Errorf("checkClose diff = %q", got)
	}
}

func TestDefaultLiveWorkers(t *testing.T) {
	if DefaultLiveWorkers() < 1 {
		t.Error("DefaultLiveWorkers must be at least 1")
	}
}
