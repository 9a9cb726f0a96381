package experiments

import (
	"strings"
	"testing"

	"doacross/internal/testloop"
)

// smallFigure6Config shrinks N so the full sweep stays fast in unit tests;
// the efficiency model is N-independent except for edge effects.
func smallFigure6Config() Figure6Config {
	cfg := DefaultFigure6Config()
	cfg.N = 2000
	return cfg
}

func TestFigure6DefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultFigure6Config()
	if cfg.N != 10000 || cfg.Processors != 16 {
		t.Errorf("default config %+v does not match the paper", cfg)
	}
	if len(cfg.Ls) != 14 || cfg.Ls[0] != 1 || cfg.Ls[13] != 14 {
		t.Errorf("default L sweep wrong: %v", cfg.Ls)
	}
	if len(cfg.Ms) != 2 || cfg.Ms[0] != 1 || cfg.Ms[1] != 5 {
		t.Errorf("default M values wrong: %v", cfg.Ms)
	}
}

func TestFigure6ShapeReproduced(t *testing.T) {
	res, err := RunFigure6(smallFigure6Config())
	if err != nil {
		t.Fatal(err)
	}
	if problems := res.CheckShape(); len(problems) > 0 {
		t.Fatalf("Figure 6 shape not reproduced:\n%s", strings.Join(problems, "\n"))
	}
}

func TestFigure6OddFloorValues(t *testing.T) {
	res, err := RunFigure6(smallFigure6Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.L%2 == 1 {
			var want float64
			if p.M == 1 {
				want = 1.0 / 3.0
			} else {
				want = 0.5
			}
			if diff := p.Efficiency - want; diff > 0.03 || diff < -0.03 {
				t.Errorf("M=%d L=%d: odd-L efficiency %.3f, want ~%.3f", p.M, p.L, p.Efficiency, want)
			}
		}
	}
}

func TestFigure6EvenLBelowFloorAndRising(t *testing.T) {
	res, err := RunFigure6(smallFigure6Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 5} {
		series := res.Series(m)
		if len(series) != 14 {
			t.Fatalf("M=%d: series has %d points, want 14", m, len(series))
		}
		prev := -1.0
		for _, p := range series {
			if p.L%2 == 0 && p.HasDependencies {
				if p.Efficiency >= series[0].Efficiency {
					t.Errorf("M=%d L=%d: dependent configuration should cost efficiency (%.3f >= floor %.3f)",
						m, p.L, p.Efficiency, series[0].Efficiency)
				}
				if p.Efficiency < prev {
					t.Errorf("M=%d L=%d: efficiency %.3f dropped below previous even value %.3f", m, p.L, p.Efficiency, prev)
				}
				prev = p.Efficiency
			}
		}
	}
}

func TestFigure6FormatContainsAllRows(t *testing.T) {
	cfg := smallFigure6Config()
	cfg.Ls = []int{1, 2, 3, 4}
	res, err := RunFigure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := res.AsTable().Text()
	for _, want := range []string{"Figure 6", "eff(M=1)", "eff(M=5)", "none (odd L)", "true deps"} {
		if !strings.Contains(out, want) {
			t.Errorf("text table missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got < 6 {
		t.Errorf("text table has too few lines: %d", got)
	}
}

func TestFigure6RejectsInvalidConfig(t *testing.T) {
	cfg := smallFigure6Config()
	cfg.Ls = []int{0}
	if _, err := RunFigure6(cfg); err == nil {
		t.Error("invalid L accepted")
	}
}

func TestFigure6CostModelCalibration(t *testing.T) {
	// The calibration identity: work/(work+overheads) equals the paper's
	// floors for M=1 and M=5.
	for _, tc := range []struct {
		m    int
		want float64
	}{{1, 1.0 / 3.0}, {5, 0.5}} {
		cm := Figure6CostModel(tc.m)
		work := cm.IterWork(0)
		total := work + cm.CheckPerRead*float64(tc.m) + cm.IterOverhead + cm.PrePerIter + cm.PostPerIter
		got := work / total
		if diff := got - tc.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("M=%d: calibrated floor %.4f, want %.4f", tc.m, got, tc.want)
		}
	}
	if Figure6CostModelFor(testloop.Config{N: 1, M: 3, L: 1}).ReadsPerIter(0) != 3 {
		t.Error("Figure6CostModelFor did not propagate M")
	}
}

// TestFigure6WavefrontAnchors pins the wavefront simulation against the
// calibration anchors the Figure 6 constants imply: a dependency-free
// configuration is a single doall level, so its efficiency is the closed
// form work / (work + wavefront overhead + pre + post), with only the lone
// barrier (amortized over N iterations) and the ceil of the work
// distribution separating simulation from formula.
func TestFigure6WavefrontAnchors(t *testing.T) {
	res, err := RunFigure6(smallFigure6Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.HasDependencies {
			continue
		}
		work := fig6BaseWork + fig6TermWork*float64(p.M)
		anchor := work / (work + fig6WfIterOverhead + fig6PrePerIter + fig6PostPerIter)
		if p.WavefrontEfficiency < anchor-0.02 || p.WavefrontEfficiency > anchor+0.02 {
			t.Errorf("M=%d L=%d: wavefront efficiency %.3f not near anchor %.3f",
				p.M, p.L, p.WavefrontEfficiency, anchor)
		}
	}
}

// TestFigure6WavefrontCrossover pins the executor comparison the extended
// sweep adds: the wavefront wins every dependency-free configuration,
// loses every deep narrow one, and the Auto cost model with the Figure 6
// coefficients calls both sides correctly.
func TestFigure6WavefrontCrossover(t *testing.T) {
	res, err := RunFigure6(smallFigure6Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.HasDependencies {
			if p.WavefrontEfficiency >= p.Efficiency {
				t.Errorf("M=%d L=%d: wavefront %.3f should lose to doacross %.3f on a deep level structure",
					p.M, p.L, p.WavefrontEfficiency, p.Efficiency)
			}
			if p.AutoPick != "doacross" {
				t.Errorf("M=%d L=%d: auto picked %s, want doacross", p.M, p.L, p.AutoPick)
			}
		} else {
			if p.WavefrontEfficiency <= p.Efficiency {
				t.Errorf("M=%d L=%d: wavefront %.3f should beat doacross %.3f without dependencies",
					p.M, p.L, p.WavefrontEfficiency, p.Efficiency)
			}
			if p.AutoPick != "wavefront" {
				t.Errorf("M=%d L=%d: auto picked %s, want wavefront", p.M, p.L, p.AutoPick)
			}
		}
	}
}
