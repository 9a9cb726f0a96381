package depgraph

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// naiveBuild is the reference every builder is checked against: the writer
// index is a map, so it needs no bound on the elements, and each iteration's
// predecessors are collected through a set and sorted on their own.
func naiveBuild(a Access) *Graph {
	writer := make(map[int]int32)
	for i := 0; i < a.N; i++ {
		for _, e := range a.Writes(i) {
			writer[e] = int32(i)
		}
	}
	g := &Graph{N: a.N, Preds: make([][]int32, a.N), Succs: make([][]int32, a.N)}
	for i := 0; i < a.N; i++ {
		seen := make(map[int32]bool)
		var preds []int32
		for _, e := range a.Reads(i) {
			if j, ok := writer[e]; ok && int(j) < i && !seen[j] {
				seen[j] = true
				preds = append(preds, j)
			}
		}
		sort.Slice(preds, func(x, y int) bool { return preds[x] < preds[y] })
		g.Preds[i] = preds
		g.Edges += len(preds)
		for _, j := range preds {
			g.Succs[j] = append(g.Succs[j], int32(i))
		}
	}
	return g
}

// naiveLevels is the reference level computation: a forward sweep giving an
// iteration level 0 without predecessors and 1 + its largest predecessor
// level otherwise.
func naiveLevels(g *Graph) []int32 {
	level := make([]int32, g.N)
	for i := 0; i < g.N; i++ {
		for _, p := range g.Preds[i] {
			level[i] = max(level[i], level[p]+1)
		}
	}
	return level
}

// denseWriter fills the dense writer index of a over dataLen elements, the
// input BuildParallelFromWriterIndex takes.
func denseWriter(a Access, dataLen int) []int32 {
	writer := make([]int32, dataLen)
	for e := range writer {
		writer[e] = -1
	}
	for i := 0; i < a.N; i++ {
		for _, e := range a.Writes(i) {
			writer[e] = int32(i)
		}
	}
	return writer
}

// chainAccess builds a loop where iteration i writes element i and reads
// element i-1: a pure sequential chain.
func chainAccess(n int) Access {
	return Access{
		N:      n,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			if i == 0 {
				return nil
			}
			return []int{i - 1}
		},
	}
}

// independentAccess builds a loop with no cross-iteration dependencies.
func independentAccess(n int) Access {
	return Access{
		N:      n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return []int{i + n} },
	}
}

func TestBuildChain(t *testing.T) {
	g := Build(chainAccess(5))
	if g.N != 5 || g.Edges != 4 {
		t.Fatalf("chain graph: N=%d edges=%d, want 5,4", g.N, g.Edges)
	}
	for i := 1; i < 5; i++ {
		if len(g.Preds[i]) != 1 || g.Preds[i][0] != int32(i-1) {
			t.Fatalf("iteration %d preds = %v, want [%d]", i, g.Preds[i], i-1)
		}
	}
	if len(g.Preds[0]) != 0 {
		t.Fatal("iteration 0 should have no predecessors")
	}
	if len(g.Succs[0]) != 1 || g.Succs[0][0] != 1 {
		t.Fatalf("iteration 0 succs = %v, want [1]", g.Succs[0])
	}
}

func TestBuildIndependent(t *testing.T) {
	g := Build(independentAccess(10))
	if g.Edges != 0 {
		t.Fatalf("independent loop produced %d edges", g.Edges)
	}
	st := g.Analyze()
	if !st.Independent {
		t.Error("Analyze should report independent")
	}
	if st.Levels != 1 || st.MaxLevelWidth != 10 {
		t.Errorf("independent loop: levels=%d width=%d, want 1,10", st.Levels, st.MaxLevelWidth)
	}
}

func TestBuildIgnoresAntiAndSelfDependencies(t *testing.T) {
	// Iteration i writes element i and reads element i+1 (anti-dependence)
	// and element i (self). Renaming removes both.
	a := Access{
		N:      6,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return []int{i + 1, i} },
	}
	g := Build(a)
	if g.Edges != 0 {
		t.Fatalf("anti/self dependencies produced %d true edges", g.Edges)
	}
}

func TestBuildDeduplicatesEdges(t *testing.T) {
	// Iteration 2 reads two different elements both written by iteration 0.
	a := Access{
		N: 3,
		Writes: func(i int) []int {
			if i == 0 {
				return []int{10, 11}
			}
			return []int{i}
		},
		Reads: func(i int) []int {
			if i == 2 {
				return []int{10, 11}
			}
			return nil
		},
	}
	g := Build(a)
	if len(g.Preds[2]) != 1 || g.Preds[2][0] != 0 {
		t.Fatalf("preds[2] = %v, want single edge to 0", g.Preds[2])
	}
}

func TestBuildFromWriterIndex(t *testing.T) {
	writer := []int32{0, 1, 2, 3}
	g := BuildParallelFromWriterIndex(4, writer, func(i int) []int {
		if i == 3 {
			return []int{0, 2}
		}
		return nil
	}, nil)
	if len(g.Preds[3]) != 2 {
		t.Fatalf("preds[3] = %v, want two predecessors", g.Preds[3])
	}
}

func TestLevelsChain(t *testing.T) {
	g := Build(chainAccess(6))
	ls := g.LevelsInto(nil)
	for i := 0; i < 6; i++ {
		if ls.Level[i] != int32(i) {
			t.Fatalf("level[%d] = %d, want %d", i, ls.Level[i], i)
		}
	}
	if ls.Count() != 6 {
		t.Fatalf("chain has %d levels, want 6", ls.Count())
	}
}

func TestLevelsEmptyGraph(t *testing.T) {
	g := Build(Access{N: 0, Writes: func(int) []int { return nil }, Reads: func(int) []int { return nil }})
	if ls := g.LevelsInto(nil); len(ls.Level) != 0 || ls.Count() != 0 {
		t.Error("empty graph should have empty levels")
	}
	if l, p := g.CriticalPath(nil); l != 0 || p != nil {
		t.Error("empty graph critical path should be 0")
	}
}

func TestCriticalPathChainAndWeights(t *testing.T) {
	g := Build(chainAccess(5))
	l, path := g.CriticalPath(nil)
	if l != 5 {
		t.Fatalf("unweighted critical path = %v, want 5", l)
	}
	if len(path) != 5 || path[0] != 0 || path[4] != 4 {
		t.Fatalf("critical path = %v, want 0..4", path)
	}
	// Weighted: iteration 2 is very expensive; path unchanged but length is.
	l, _ = g.CriticalPath(func(i int) float64 {
		if i == 2 {
			return 10
		}
		return 1
	})
	if l != 14 {
		t.Fatalf("weighted critical path = %v, want 14", l)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	// 0 -> {1,2} -> 3 (1 and 2 independent of each other).
	a := Access{
		N:      4,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			switch i {
			case 1, 2:
				return []int{0}
			case 3:
				return []int{1, 2}
			}
			return nil
		},
	}
	g := Build(a)
	l, path := g.CriticalPath(nil)
	if l != 3 {
		t.Fatalf("diamond critical path = %v, want 3", l)
	}
	if len(path) != 3 || path[0] != 0 || path[2] != 3 {
		t.Fatalf("diamond path = %v", path)
	}
	st := g.Analyze()
	if st.Levels != 3 || st.MaxLevelWidth != 2 {
		t.Errorf("diamond stats: %+v", st)
	}
	if st.MaxSpeedup < 1.3 || st.MaxSpeedup > 1.34 {
		t.Errorf("diamond max speedup = %v, want 4/3", st.MaxSpeedup)
	}
}

func TestIsTopologicalOrder(t *testing.T) {
	g := Build(chainAccess(4))
	if !g.IsTopologicalOrder([]int{0, 1, 2, 3}) {
		t.Error("natural order of a chain should be topological")
	}
	if g.IsTopologicalOrder([]int{1, 0, 2, 3}) {
		t.Error("swapped chain order should not be topological")
	}
	if g.IsTopologicalOrder([]int{0, 1, 2}) {
		t.Error("short order should be rejected")
	}
	if g.IsTopologicalOrder([]int{0, 1, 2, 2}) {
		t.Error("duplicate order should be rejected")
	}
	if g.IsTopologicalOrder([]int{0, 1, 2, 7}) {
		t.Error("out-of-range order should be rejected")
	}
}

func TestLevelOrderIsAlwaysTopological(t *testing.T) {
	// Property: for random single-writer loops, concatenating the level
	// groups gives a valid topological order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		reads := make([][]int, n)
		for i := 1; i < n; i++ {
			for k := 0; k < rng.Intn(3); k++ {
				reads[i] = append(reads[i], rng.Intn(n))
			}
		}
		g := Build(Access{
			N:      n,
			Writes: func(i int) []int { return []int{i} },
			Reads:  func(i int) []int { return reads[i] },
		})
		var order []int
		for _, it := range g.LevelsInto(nil).Members {
			order = append(order, int(it))
		}
		return g.IsTopologicalOrder(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCriticalPathAtMostLevels(t *testing.T) {
	// Property: the unweighted critical path equals the number of levels.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(30)
		reads := make([][]int, n)
		for i := 1; i < n; i++ {
			if rng.Intn(2) == 0 {
				reads[i] = append(reads[i], rng.Intn(i))
			}
		}
		g := Build(Access{
			N:      n,
			Writes: func(i int) []int { return []int{i} },
			Reads:  func(i int) []int { return reads[i] },
		})
		cp, _ := g.CriticalPath(nil)
		return int(cp) == g.LevelsInto(nil).Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParallelismProfile(t *testing.T) {
	g := Build(chainAccess(3))
	prof := g.ParallelismProfile()
	if len(prof) != 3 || prof[0] != 1 || prof[1] != 1 || prof[2] != 1 {
		t.Errorf("chain profile = %v", prof)
	}
	g = Build(independentAccess(7))
	prof = g.ParallelismProfile()
	if len(prof) != 1 || prof[0] != 7 {
		t.Errorf("independent profile = %v", prof)
	}
}

func TestStatsString(t *testing.T) {
	st := Build(chainAccess(4)).Analyze()
	s := st.String()
	if !strings.Contains(s, "iters=4") || !strings.Contains(s, "critPath=4") {
		t.Errorf("Stats.String() = %q", s)
	}
}

// randomAccess builds a random output-dependency-free access pattern:
// iteration i writes element perm[i] and reads a few random elements, so the
// graph mixes true dependencies, anti-dependencies and untouched reads.
func randomAccess(rng *rand.Rand, n int) (Access, int) {
	dataLen := 2 * n
	perm := rng.Perm(dataLen)[:n]
	reads := make([][]int, n)
	for i := range reads {
		k := rng.Intn(4)
		for j := 0; j < k; j++ {
			reads[i] = append(reads[i], rng.Intn(dataLen))
		}
	}
	return Access{
		N:      n,
		Writes: func(i int) []int { return perm[i : i+1] },
		Reads:  func(i int) []int { return reads[i] },
	}, dataLen
}

// goParallelFor is a goroutine-per-shard parallel runner used to exercise
// BuildParallelFromWriterIndex's concurrency under the race detector.
func goParallelFor(n int, body func(i int)) {
	const shards = 4
	done := make(chan struct{}, shards)
	for s := 0; s < shards; s++ {
		go func(s int) {
			for i := s; i < n; i += shards {
				body(i)
			}
			done <- struct{}{}
		}(s)
	}
	for s := 0; s < shards; s++ {
		<-done
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.N != b.N || a.Edges != b.Edges {
		return false
	}
	for i := 0; i < a.N; i++ {
		if len(a.Preds[i]) != len(b.Preds[i]) {
			return false
		}
		for k := range a.Preds[i] {
			if a.Preds[i][k] != b.Preds[i][k] {
				return false
			}
		}
		if len(a.Succs[i]) != len(b.Succs[i]) {
			return false
		}
		for k := range a.Succs[i] {
			if a.Succs[i][k] != b.Succs[i][k] {
				return false
			}
		}
	}
	return true
}

// TestBuildParallelMatchesBuild checks that Build and the pool-parallel
// construction over a dense writer index, with a nil runner and a genuinely
// concurrent one, produce exactly the graph of the naive reference builder
// for random access patterns.
func TestBuildParallelMatchesBuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, dataLen := randomAccess(rng, 20+rng.Intn(200))
		want := naiveBuild(a)
		writer := denseWriter(a, dataLen)
		return graphsEqual(want, Build(a)) &&
			graphsEqual(want, BuildParallelFromWriterIndex(a.N, writer, a.Reads, nil)) &&
			graphsEqual(want, BuildParallelFromWriterIndex(a.N, writer, a.Reads, goParallelFor))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLevelsIntoMatchesLevels checks the CSR decomposition against the naive
// forward sweep on random graphs — every iteration's level, and each level's
// members in ascending order — including buffer reuse across graphs of
// different sizes.
func TestLevelsIntoMatchesLevels(t *testing.T) {
	ls := &LevelSet{} // reused across all iterations to exercise buffer reuse
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, _ := randomAccess(rng, 10+rng.Intn(300))
		g := Build(a)
		level := naiveLevels(g)
		var byLevel [][]int32
		for i, l := range level {
			for int(l) >= len(byLevel) {
				byLevel = append(byLevel, nil)
			}
			byLevel[l] = append(byLevel[l], int32(i))
		}
		g.LevelsInto(ls)
		if ls.Count() != len(byLevel) {
			return false
		}
		for i := 0; i < g.N; i++ {
			if ls.Level[i] != level[i] {
				return false
			}
		}
		for l := range byLevel {
			members := ls.LevelMembers(l)
			if len(members) != len(byLevel[l]) {
				return false
			}
			for k := range members {
				if members[k] != byLevel[l][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLevelsIntoEmptyAndNil(t *testing.T) {
	g := Build(Access{N: 0, Writes: func(int) []int { return nil }, Reads: func(int) []int { return nil }})
	ls := g.LevelsInto(nil)
	if ls.Count() != 0 {
		t.Fatalf("empty graph has %d levels, want 0", ls.Count())
	}
	if ls.MaxWidth() != 0 {
		t.Fatalf("empty graph max width = %d, want 0", ls.MaxWidth())
	}
}

func TestLevelSetMaxWidth(t *testing.T) {
	// Diamond: 0 -> {1,2} -> 3. Levels: {0}, {1,2}, {3}; max width 2.
	g := Build(Access{
		N:      4,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			switch i {
			case 1, 2:
				return []int{0}
			case 3:
				return []int{1, 2}
			}
			return nil
		},
	})
	ls := g.LevelsInto(nil)
	if ls.Count() != 3 || ls.MaxWidth() != 2 {
		t.Fatalf("diamond: levels=%d maxWidth=%d, want 3, 2", ls.Count(), ls.MaxWidth())
	}
}

// BenchmarkLevelsInto times the buffer-reusing level decomposition; the
// wavefront inspector calls it on every cold inspect, so it must be
// allocation-free after the first call.
func BenchmarkLevelsInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a, _ := randomAccess(rng, 20000)
	g := Build(a)
	ls := g.LevelsInto(nil) // warm the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.LevelsInto(ls)
	}
}

func BenchmarkBuildParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a, dataLen := randomAccess(rng, 20000)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Build(a)
		}
	})
	b.Run("goroutines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildParallelFromWriterIndex(a.N, denseWriter(a, dataLen), a.Reads, goParallelFor)
		}
	})
}
