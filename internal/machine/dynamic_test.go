package machine

import (
	"math"
	"math/rand"
	"testing"

	"doacross/internal/depgraph"
	"doacross/internal/sched"
)

// naiveDynamicReference recomputes the dynamic wavefront's executor phase the
// slow, obvious way — per level, hand chunks of the member list to the
// earliest-free processor (lowest index on ties), charging the claim before
// the chunk and one failed claim per processor at the end — and returns the
// elapsed executor time, the total claim count and the barrier total. It is
// deliberately independent code: the accounting test compares
// SimulateDynamicWavefront against it on random level shapes.
func naiveDynamicReference(g *depgraph.Graph, procs int, cm CostModel, wc WavefrontCosts) (exec float64, claims int, barrierTime float64) {
	ls := g.LevelsInto(nil)
	byLevel := make([][]int32, ls.Count())
	for l := range byLevel {
		byLevel[l] = ls.LevelMembers(l)
	}
	maxWidth := 0
	for _, lvl := range byLevel {
		if len(lvl) > maxWidth {
			maxWidth = len(lvl)
		}
	}
	p := procs
	if p > maxWidth {
		p = maxWidth
	}
	if p < 1 {
		p = 1
	}
	chunk := wc.Chunk
	if chunk < 1 {
		chunk = sched.DefaultChunk
	}
	for _, lvl := range byLevel {
		// Per-level chunk clamp, mirroring sched.LevelChunk independently.
		levelChunk := chunk
		if lim := len(lvl) / (2 * p); levelChunk > lim {
			levelChunk = lim
		}
		if levelChunk < 1 {
			levelChunk = 1
		}
		clocks := make([]float64, p)
		for idx := 0; idx < len(lvl); idx += levelChunk {
			w := 0
			for v := 1; v < p; v++ {
				if clocks[v] < clocks[w] {
					w = v
				}
			}
			clocks[w] += wc.Claim
			claims++
			end := idx + levelChunk
			if end > len(lvl) {
				end = len(lvl)
			}
			for _, it := range lvl[idx:end] {
				clocks[w] += cm.IterWork(int(it)) + wc.IterOverhead
			}
		}
		levelMax := 0.0
		for w := range clocks {
			clocks[w] += wc.Claim
			claims++
			if clocks[w] > levelMax {
				levelMax = clocks[w]
			}
		}
		exec += levelMax + wc.Barrier
	}
	return exec, claims, wc.Barrier * float64(len(byLevel))
}

// randomLayeredGraph builds a graph whose wavefront decomposition has the
// given random level widths: each iteration of level l depends on one random
// member of level l-1.
func randomLayeredGraph(rng *rand.Rand, widths []int) *depgraph.Graph {
	var starts []int
	n := 0
	for _, w := range widths {
		starts = append(starts, n)
		n += w
	}
	reads := make([][]int, n)
	for l := 1; l < len(widths); l++ {
		for i := starts[l]; i < starts[l]+widths[l]; i++ {
			reads[i] = []int{starts[l-1] + rng.Intn(widths[l-1])}
		}
	}
	return depgraph.Build(depgraph.Access{
		N:      n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return reads[i] },
	})
}

// TestSimulateDynamicWavefrontAccounting checks the dynamic model against
// the naive greedy reference on random level shapes and random per-iteration
// costs: the executor time, barrier total, claim-overhead accounting and the
// model's structural invariants (no waits, level count, TPar composition)
// must all agree exactly.
func TestSimulateDynamicWavefrontAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		depth := 1 + rng.Intn(8)
		widths := make([]int, depth)
		for l := range widths {
			widths[l] = 1 + rng.Intn(40)
		}
		g := randomLayeredGraph(rng, widths)
		work := make([]float64, g.N)
		for i := range work {
			work[i] = 0.5 + 4*rng.Float64()
			if rng.Intn(5) == 0 {
				work[i] *= 20 // heavy tail
			}
		}
		cm := CostModel{
			BaseWork:    func(i int) float64 { return work[i] },
			PrePerIter:  0.25,
			PostPerIter: 0.25,
		}
		wc := WavefrontCosts{
			Barrier:      1 + 3*rng.Float64(),
			IterOverhead: rng.Float64(),
			Claim:        rng.Float64(),
			Chunk:        1 + rng.Intn(8),
		}
		procs := 1 + rng.Intn(20)
		cfg := Config{Processors: procs}

		res, err := SimulateDynamicWavefront(g, cfg, cm, wc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantExec, wantClaims, wantBarrier := naiveDynamicReference(g, procs, cm, wc)
		if math.Abs(res.ExecTime-wantExec) > 1e-9 {
			t.Fatalf("trial %d: exec time %.6f, reference %.6f", trial, res.ExecTime, wantExec)
		}
		if math.Abs(res.BarrierTime-wantBarrier) > 1e-9 {
			t.Fatalf("trial %d: barrier time %.6f, reference %.6f", trial, res.BarrierTime, wantBarrier)
		}
		wantOverhead := float64(g.N)*wc.IterOverhead + wantBarrier + wc.Claim*float64(wantClaims)
		if math.Abs(res.OverheadTime-wantOverhead) > 1e-9 {
			t.Fatalf("trial %d: overhead %.6f, reference %.6f", trial, res.OverheadTime, wantOverhead)
		}
		if res.WaitTime != 0 {
			t.Fatalf("trial %d: dynamic model charged wait time %.3f", trial, res.WaitTime)
		}
		if res.Levels != depth {
			t.Fatalf("trial %d: %d levels simulated, want %d", trial, res.Levels, depth)
		}
		perProc := math.Ceil(float64(g.N) / float64(procs))
		wantTPar := perProc*cm.PrePerIter + wantExec + perProc*cm.PostPerIter
		if math.Abs(res.TPar-wantTPar) > 1e-9 {
			t.Fatalf("trial %d: TPar %.6f, want %.6f", trial, res.TPar, wantTPar)
		}
	}
}

// skewedCost returns a cost model where the first member of each level is a
// hot iteration of the given weight and every other iteration costs one unit
// (the heavy-tailed regime the dynamic executor exists for).
func skewedCost(width int, hot float64) CostModel {
	return CostModel{BaseWork: func(i int) float64 {
		if i%width == 0 {
			return hot
		}
		return 1
	}}
}

// TestDynamicWavefrontCrossover pins the static/dynamic trade exactly where
// the structure says it should flip: on skewed levels the dynamic model wins
// while the claim cost stays below the imbalance it reclaims and loses once
// claims outweigh it (with a single monotone crossover in between), and on
// uniform levels the claim traffic is pure loss — the static schedule wins
// at every positive claim cost.
func TestDynamicWavefrontCrossover(t *testing.T) {
	const width, depth, procs = 64, 8, 8
	g := layeredGraph(width, depth)
	cfg := Config{Processors: procs}
	base := WavefrontCosts{Barrier: 2.0, IterOverhead: 0.5, Chunk: 1}

	// Skewed levels: one member costs 100 units, the rest one unit each. The
	// static schedule (block) gives the hot member's worker width/procs-1
	// cheap members on top, so dynamic reclaims ~7 units per level.
	skew := skewedCost(width, 100)
	tStatic := func(cm CostModel) float64 {
		res, err := SimulateWavefront(g, cfg, cm, base)
		if err != nil {
			t.Fatal(err)
		}
		return res.TPar
	}
	tDynamic := func(cm CostModel, claim float64) float64 {
		wc := base
		wc.Claim = claim
		res, err := SimulateDynamicWavefront(g, cfg, cm, wc)
		if err != nil {
			t.Fatal(err)
		}
		return res.TPar
	}

	staticSkew := tStatic(skew)
	if free := tDynamic(skew, 0); free >= staticSkew {
		t.Fatalf("free claims on skewed levels: dynamic %.1f not below static %.1f", free, staticSkew)
	}
	if costly := tDynamic(skew, 1000); costly <= staticSkew {
		t.Fatalf("ruinous claims on skewed levels: dynamic %.1f not above static %.1f", costly, staticSkew)
	}
	// The dynamic time grows monotonically in the claim cost, so the win
	// flips exactly once; locate the crossover and verify both sides.
	lo, hi := 0.0, 1000.0
	for range 60 {
		mid := (lo + hi) / 2
		if tDynamic(skew, mid) < staticSkew {
			lo = mid
		} else {
			hi = mid
		}
	}
	crossover := (lo + hi) / 2
	if crossover <= 0 || crossover >= 1000 {
		t.Fatalf("no interior crossover found (%.3f)", crossover)
	}
	if win := tDynamic(skew, crossover/2); win >= staticSkew {
		t.Errorf("below crossover %.3f: dynamic %.1f does not beat static %.1f", crossover, win, staticSkew)
	}
	if lose := tDynamic(skew, crossover*2); lose <= staticSkew {
		t.Errorf("above crossover %.3f: dynamic %.1f does not lose to static %.1f", crossover, lose, staticSkew)
	}

	// Uniform levels: nothing to reclaim, so any positive claim cost makes
	// the dynamic strictly slower.
	uniform := UniformCost(1.0, 0, 0, 0, 0, 0, 0)
	staticUniform := tStatic(uniform)
	for _, claim := range []float64{0.01, 0.5, 5} {
		if dyn := tDynamic(uniform, claim); dyn <= staticUniform {
			t.Errorf("uniform levels, claim %.2f: dynamic %.1f not above static %.1f", claim, dyn, staticUniform)
		}
	}
	if dyn := tDynamic(uniform, 0); math.Abs(dyn-staticUniform) > 1e-9 {
		t.Errorf("uniform levels, free claims: dynamic %.3f differs from static %.3f", dyn, staticUniform)
	}
}

// TestSimulateDynamicWavefrontValidation pins the error paths.
func TestSimulateDynamicWavefrontValidation(t *testing.T) {
	g := layeredGraph(4, 4)
	cm, wc := uniformWavefrontCost()
	if _, err := SimulateDynamicWavefront(g, Config{Processors: 0}, cm, wc); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := SimulateDynamicWavefront(g, Config{Processors: 4, Order: make([]int, 16)}, cm, wc); err == nil {
		t.Error("explicit order accepted")
	}
	if _, err := SimulateDynamicWavefront(g, Config{Processors: 4}, CostModel{}, wc); err == nil {
		t.Error("empty cost model accepted")
	}
}
