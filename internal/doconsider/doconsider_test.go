package doconsider

import (
	"math/rand"
	"testing"
	"testing/quick"

	"doacross/internal/depgraph"
)

// randomDAG builds a random single-writer loop dependency graph.
func randomDAG(seed int64, n int) *depgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	write := make([]int, n)
	for i := range write {
		write[i] = i
	}
	reads := make([][]int, n)
	for i := 1; i < n; i++ {
		for k := 0; k < rng.Intn(3); k++ {
			reads[i] = append(reads[i], rng.Intn(i))
		}
	}
	return depgraph.Build(depgraph.Access{N: n, Writes: func(i int) []int { return write[i : i+1] }, Reads: func(i int) []int { return reads[i] }})
}

// gridDAG builds the dependency graph of a forward substitution on the lower
// triangular factor of a 2-D five-point operator in row-major order:
// iteration (i,j) depends on (i-1,j) and (i,j-1). Its wavefronts are the
// anti-diagonals of the grid, which are not contiguous in the natural order —
// exactly the structure the doconsider reordering exploits.
func gridDAG(nx, ny int) *depgraph.Graph {
	n := nx * ny
	write := make([]int, n)
	for i := range write {
		write[i] = i
	}
	return depgraph.Build(depgraph.Access{N: n, Writes: func(i int) []int { return write[i : i+1] }, Reads: func(it int) []int {
		i, j := it/ny, it%ny
		var r []int
		if i > 0 {
			r = append(r, (i-1)*ny+j)
		}
		if j > 0 {
			r = append(r, i*ny+j-1)
		}
		return r
	}})
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		Natural: "natural", Level: "level", LevelInterleaved: "level-interleaved",
		CriticalPath: "critical-path", Strategy(99): "unknown",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if len(Strategies) != 4 {
		t.Errorf("Strategies has %d entries", len(Strategies))
	}
}

func TestNaturalOrderIsIdentity(t *testing.T) {
	g := randomDAG(1, 50)
	order := Order(g, Natural)
	for i, it := range order {
		if it != i {
			t.Fatalf("natural order not identity at %d: %d", i, it)
		}
	}
	if err := Validate(g, order); err != nil {
		t.Fatal(err)
	}
}

func TestAllStrategiesProduceTopologicalOrders(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 60)
		for _, s := range Strategies {
			if err := Validate(g, Order(g, s)); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLevelOrderGroupsWavefronts(t *testing.T) {
	g := gridDAG(10, 10)
	order := Order(g, Level)
	level := g.LevelsInto(nil).Level
	for k := 1; k < len(order); k++ {
		if level[order[k]] < level[order[k-1]] {
			t.Fatalf("level order decreases at position %d", k)
		}
	}
}

func TestLevelInterleavedSameLevelSetPerPrefix(t *testing.T) {
	g := gridDAG(15, 14)
	plain := Order(g, Level)
	inter := Order(g, LevelInterleaved)
	if len(plain) != len(inter) {
		t.Fatal("length mismatch")
	}
	// Both must contain the same iterations overall.
	seen := make(map[int]bool)
	for _, it := range inter {
		seen[it] = true
	}
	if len(seen) != g.N {
		t.Fatal("interleaved order is not a permutation")
	}
	if err := Validate(g, inter); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalPathOrderPrefersLongChains(t *testing.T) {
	// Graph: a long chain 0->1->2->...->9 plus ten independent iterations
	// 10..19. Critical-path ordering must start with the chain head.
	n := 20
	write := make([]int, n)
	for i := range write {
		write[i] = i
	}
	g := depgraph.Build(depgraph.Access{N: n, Writes: func(i int) []int { return write[i : i+1] }, Reads: func(i int) []int {
		if i >= 1 && i < 10 {
			return []int{i - 1}
		}
		return nil
	}})
	order := Order(g, CriticalPath)
	if order[0] != 0 {
		t.Fatalf("critical-path order starts with %d, want chain head 0", order[0])
	}
	if err := Validate(g, order); err != nil {
		t.Fatal(err)
	}
	// The chain iterations must appear in increasing order.
	pos := make([]int, n)
	for k, it := range order {
		pos[it] = k
	}
	for i := 1; i < 10; i++ {
		if pos[i] < pos[i-1] {
			t.Fatal("chain order violated")
		}
	}
}

func TestValidateRejectsBadOrders(t *testing.T) {
	g := gridDAG(5, 2)
	if err := Validate(g, []int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	bad := Order(g, Level)
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
	if err := Validate(g, bad); err == nil {
		t.Error("non-topological order accepted")
	}
}

func TestNewPlanWaitDistance(t *testing.T) {
	g := gridDAG(30, 8)
	natural := NewPlan(g, Natural)
	level := NewPlan(g, Level)
	if natural.Levels != level.Levels {
		t.Error("plan level count should not depend on strategy")
	}
	if level.MeanWaitDistance <= natural.MeanWaitDistance {
		t.Errorf("level ordering should increase mean wait distance: natural %.1f level %.1f",
			natural.MeanWaitDistance, level.MeanWaitDistance)
	}
	if natural.Order == nil || level.Order == nil {
		t.Error("plans must carry their orders")
	}
}

func TestNewPlanNoEdges(t *testing.T) {
	write := []int{0, 1, 2}
	g := depgraph.Build(depgraph.Access{N: 3, Writes: func(i int) []int { return write[i : i+1] }, Reads: func(i int) []int { return nil }})
	p := NewPlan(g, Level)
	if p.MeanWaitDistance != 0 {
		t.Error("edge-free graph should have zero mean wait distance")
	}
}
