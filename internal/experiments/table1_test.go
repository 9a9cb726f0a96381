package experiments

import (
	"strings"
	"testing"

	"doacross/internal/doconsider"
	"doacross/internal/stencil"
)

// smallTable1Config keeps unit-test runtime moderate by using the three
// smaller problems; the full five-problem table is exercised by the
// doabench command and the benchmarks.
func smallTable1Config() Table1Config {
	cfg := DefaultTable1Config()
	cfg.Problems = []stencil.Problem{stencil.SPE2, stencil.FivePoint, stencil.NinePoint}
	return cfg
}

func TestTable1DefaultConfig(t *testing.T) {
	cfg := DefaultTable1Config()
	if len(cfg.Problems) != 5 || cfg.Processors != 16 || cfg.Reordering != doconsider.Level {
		t.Errorf("default Table 1 config %+v does not match the paper", cfg)
	}
}

func TestTable1RowsMatchProblemSizes(t *testing.T) {
	res, err := RunTable1(smallTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Equations != row.Problem.Equations() {
			t.Errorf("%v: %d equations, want %d", row.Problem, row.Equations, row.Problem.Equations())
		}
		if row.Levels <= 1 {
			t.Errorf("%v: implausible level count %d", row.Problem, row.Levels)
		}
		if row.NNZ <= row.Equations {
			t.Errorf("%v: implausible nnz %d", row.Problem, row.NNZ)
		}
		if row.WavefrontMs <= 0 || row.WavefrontEff <= 0 {
			t.Errorf("%v: wavefront executor column missing", row.Problem)
		}
		if row.DynamicMs <= 0 || row.DynamicEff <= 0 {
			t.Errorf("%v: dynamic wavefront executor column missing", row.Problem)
		}
		if row.AutoPick != "doacross" && row.AutoPick != "wavefront" && row.AutoPick != "wavefront-dynamic" {
			t.Errorf("%v: implausible auto pick %q", row.Problem, row.AutoPick)
		}
	}
}

func TestTable1ShapeReproduced(t *testing.T) {
	res, err := RunTable1(smallTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	if problems := res.CheckShape(); len(problems) > 0 {
		t.Fatalf("Table 1 shape not reproduced:\n%s", strings.Join(problems, "\n"))
	}
}

func TestTable1ColumnOrdering(t *testing.T) {
	res, err := RunTable1(smallTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !(row.SequentialMs > row.DoacrossMs && row.DoacrossMs > row.ReorderedMs) {
			t.Errorf("%v: expected sequential > doacross > reordered, got %.0f / %.0f / %.0f",
				row.Problem, row.SequentialMs, row.DoacrossMs, row.ReorderedMs)
		}
		if row.ReorderedEff <= row.DoacrossEff {
			t.Errorf("%v: reordering did not improve efficiency (%.2f vs %.2f)", row.Problem, row.ReorderedEff, row.DoacrossEff)
		}
	}
}

func TestTable1ReorderedBand(t *testing.T) {
	res, err := RunTable1(smallTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	_, _, reLo, reHi := res.SpeedupSummary()
	if reLo < 0.55 || reHi > 0.85 {
		t.Errorf("reordered efficiency band %.2f..%.2f outside the accepted 0.55..0.85 (paper 0.63..0.75)", reLo, reHi)
	}
}

func TestTable1Format(t *testing.T) {
	res, err := RunTable1(smallTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	out := res.AsTable().Text()
	for _, want := range []string{"Table 1", "SPE2", "5-PT", "9-PT", "Rearranged", "Sequential"} {
		if !strings.Contains(out, want) {
			t.Errorf("text table missing %q", want)
		}
	}
}

func TestTable1FivePointSequentialScale(t *testing.T) {
	// The ms scale is anchored so the simulated 5-PT sequential time is close
	// to the paper's 192 ms.
	res, err := RunTable1(Table1Config{Problems: []stencil.Problem{stencil.FivePoint}, Processors: 16, Seed: 1, Reordering: doconsider.Level})
	if err != nil {
		t.Fatal(err)
	}
	seq := res.Rows[0].SequentialMs
	if seq < 170 || seq > 215 {
		t.Errorf("5-PT sequential time %.0f ms, want within ~10%% of the paper's 192 ms", seq)
	}
}

func TestSpeedupSummaryEmpty(t *testing.T) {
	var r Table1Result
	a, b, c, d := r.SpeedupSummary()
	if a != 0 || b != 0 || c != 0 || d != 0 {
		t.Error("empty result should summarize to zeros")
	}
}
