// Package depgraph builds and analyses the inter-iteration dependency graph
// of a loop whose subscripts are only known at run time. It is the analysis
// substrate shared by the doconsider reordering, the machine simulator and
// the experiment harness.
//
// A loop iteration i writes a set of data elements and reads a set of data
// elements. Because the preprocessed doacross renames all writes into a
// separate array (ynew), only flow (true) dependencies constrain execution:
// iteration i depends on iteration j when j < i and j writes an element that
// i reads. Anti- and output dependencies are removed by the renaming, exactly
// as in Section 2.1 of the paper.
package depgraph

import (
	"fmt"
	"sort"
)

// Access describes the data elements touched by each iteration of a loop.
type Access struct {
	// N is the number of iterations.
	N int
	// Writes returns the data elements written by iteration i. The
	// preprocessed doacross assumes no output dependencies, i.e. no element
	// is written by two different iterations.
	Writes func(i int) []int
	// Reads returns the data elements read by iteration i.
	Reads func(i int) []int
}

// Graph is the true-dependency DAG of a loop: Preds[i] lists the iterations
// that iteration i must wait for (each writes an element i reads and precedes
// i in the original order), and Succs is the reverse adjacency.
type Graph struct {
	N     int
	Preds [][]int32
	Succs [][]int32
	// Edges is the total number of dependency edges.
	Edges int
}

// Build constructs the true-dependency graph of the access pattern: it fills
// a dense writer index from Writes (elements are non-negative, as
// core.Loop.Validate requires; the last writer of an element wins) and runs
// the predecessor scan of BuildParallelFromWriterIndex sequentially over it.
// Duplicate edges (an iteration reading several elements produced by the same
// earlier iteration) are collapsed.
func Build(a Access) *Graph {
	var writer []int32
	for i := 0; i < a.N; i++ {
		for _, e := range a.Writes(i) {
			for len(writer) <= e {
				writer = append(writer, -1)
			}
			writer[e] = int32(i)
		}
	}
	return BuildParallelFromWriterIndex(a.N, writer, a.Reads, nil)
}

// FromPreds reconstructs a graph from per-iteration predecessor lists (the
// form an exported plan document records): successor lists and the edge count
// are derived, the predecessor slices are retained as given. Every
// predecessor must lie in [0, i) for iteration i.
func FromPreds(preds [][]int32) *Graph {
	g := &Graph{
		N:     len(preds),
		Preds: preds,
		Succs: make([][]int32, len(preds)),
	}
	for i, ps := range preds {
		g.Edges += len(ps)
		for _, j := range ps {
			g.Succs[j] = append(g.Succs[j], int32(i))
		}
	}
	return g
}

// BuildParallelFromWriterIndex is the one predecessor scan behind every
// graph: given the dense writer index (writer[e] = the iteration writing
// element e, -1 for unwritten elements), iteration i depends on the writer of
// each element it reads when that writer precedes i. Reads outside the index
// or of unwritten elements, self and anti-dependencies add no edge. The
// wavefront inspector fills the index anyway for its execution-time
// dependency checks and shares it here instead of building it twice.
//
// parallelFor distributes the per-iteration scans: it must run body(i) for
// every i in [0, n), possibly concurrently, and return only once all calls
// have finished — sched.Pool.ParallelFor satisfies the contract. A nil
// parallelFor runs the scans sequentially (Build's front end).
func BuildParallelFromWriterIndex(n int, writer []int32, reads func(i int) []int, parallelFor func(n int, body func(i int))) *Graph {
	if parallelFor == nil {
		parallelFor = func(n int, body func(i int)) {
			for i := 0; i < n; i++ {
				body(i)
			}
		}
	}
	g := &Graph{
		N:     n,
		Preds: make([][]int32, n),
		Succs: make([][]int32, n),
	}
	parallelFor(n, func(i int) {
		var preds []int32
		for _, e := range reads(i) {
			if e < 0 || e >= len(writer) {
				continue
			}
			j := writer[e]
			if j < 0 || int(j) >= i {
				// Not written, self dependence, or anti-dependence
				// (removed by renaming).
				continue
			}
			preds = append(preds, j)
		}
		g.Preds[i] = dedupSorted(preds)
	})
	// The reverse adjacency appends to shared per-node slices, so it stays
	// sequential; it is O(edges), cheap next to the predecessor scans above.
	for i := 0; i < n; i++ {
		g.Edges += len(g.Preds[i])
		for _, j := range g.Preds[i] {
			g.Succs[j] = append(g.Succs[j], int32(i))
		}
	}
	return g
}

func dedupSorted(xs []int32) []int32 {
	if len(xs) < 2 {
		return xs
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// LevelSet is the wavefront (level-set) decomposition of a graph in CSR form:
// Level[i] is the level of iteration i, and level l's members are
// Members[Off[l]:Off[l+1]], in ascending iteration order. Iterations within
// one level can run concurrently. LevelsInto fills it into reusable buffers,
// so a caller (the wavefront inspector) that decomposes a graph on every cold
// inspect allocates only when a graph outgrows the last one.
type LevelSet struct {
	Level   []int32
	Members []int32
	Off     []int32
}

// Count returns the number of levels.
func (ls *LevelSet) Count() int { return len(ls.Off) - 1 }

// LevelMembers returns the iterations of level l, in ascending order.
func (ls *LevelSet) LevelMembers(l int) []int32 { return ls.Members[ls.Off[l]:ls.Off[l+1]] }

// MaxWidth returns the size of the widest level.
func (ls *LevelSet) MaxWidth() int {
	max := 0
	for l := 0; l < ls.Count(); l++ {
		if w := int(ls.Off[l+1] - ls.Off[l]); w > max {
			max = w
		}
	}
	return max
}

// grow returns buf resized to length n, reusing its backing array when
// possible.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// LevelsInto computes the wavefront decomposition of the graph into the
// reusable buffers of ls, allocating only when the buffers are too small (or
// ls is nil, in which case a fresh LevelSet is allocated). It returns ls.
// Level[i] is 0 when iteration i has no predecessors, otherwise 1 + the
// maximum level of its predecessors.
//
// Because every edge points from a lower iteration index to a higher one, a
// single forward sweep suffices; no explicit topological sort is needed. The
// sweep and the counting sort that groups the levels are both O(N + edges)
// with no per-level allocations — the property the wavefront inspector needs
// when it cold-inspects loop after loop on one runtime.
func (g *Graph) LevelsInto(ls *LevelSet) *LevelSet {
	if ls == nil {
		ls = &LevelSet{}
	}
	ls.Level = grow(ls.Level, g.N)
	ls.Members = grow(ls.Members, g.N)
	levels := int32(0)
	for i := 0; i < g.N; i++ {
		l := int32(0)
		for _, p := range g.Preds[i] {
			if lp := ls.Level[p] + 1; lp > l {
				l = lp
			}
		}
		ls.Level[i] = l
		if l+1 > levels {
			levels = l + 1
		}
	}
	ls.Off = grow(ls.Off, int(levels)+1)
	for l := range ls.Off {
		ls.Off[l] = 0
	}
	for i := 0; i < g.N; i++ {
		ls.Off[ls.Level[i]+1]++
	}
	for l := 0; l < int(levels); l++ {
		ls.Off[l+1] += ls.Off[l]
	}
	// Scatter, advancing Off[l] as the cursor of level l; afterwards Off[l]
	// holds the END of level l, so shifting the array right by one restores
	// the start offsets. Iterating i in ascending order keeps each level's
	// members sorted.
	for i := 0; i < g.N; i++ {
		l := ls.Level[i]
		ls.Members[ls.Off[l]] = int32(i)
		ls.Off[l]++
	}
	for l := int(levels); l >= 1; l-- {
		ls.Off[l] = ls.Off[l-1]
	}
	ls.Off[0] = 0
	return ls
}

// StallWeight estimates the pipeline stalls a busy-wait doacross on the
// given worker count would suffer, from the dependence-distance histogram:
// Σ over edges of max(0, (P - d)/P), where d is the edge's distance
// (consumer iteration minus producer). A distance-1 edge stalls its
// consumer's worker almost a full iteration (the producer started in the
// same schedule round); an edge at distance ≥ P is fully absorbed by the
// pipelining. It is the statistic the Auto executor selection prices and
// the quantity the doconsider reordering exists to shrink.
func (g *Graph) StallWeight(workers int) float64 {
	w := 0.0
	for i := 0; i < g.N; i++ {
		w += g.StallShare(i, workers)
	}
	return w
}

// StallShare is iteration i's share of StallWeight: the stall estimate of
// its incoming edges, Σ over its predecessors of max(0, (P - d)/P). An
// incremental repair subtracts an edited iteration's share before the edit
// and adds it back after.
func (g *Graph) StallShare(i, workers int) float64 {
	if workers <= 1 {
		return 0
	}
	w := 0.0
	for _, p := range g.Preds[i] {
		if d := i - int(p); d < workers {
			w += float64(workers-d) / float64(workers)
		}
	}
	return w
}

// CriticalPath returns the length of the longest weighted chain through the
// graph, where cost(i) is the execution cost of iteration i. With a nil cost
// function every iteration costs 1, so the result is the number of iterations
// on the longest dependency chain. The path itself (iteration indices, in
// execution order) is returned as well.
func (g *Graph) CriticalPath(cost func(i int) float64) (length float64, path []int) {
	if g.N == 0 {
		return 0, nil
	}
	unit := func(int) float64 { return 1 }
	if cost == nil {
		cost = unit
	}
	dist := make([]float64, g.N)
	from := make([]int, g.N)
	best := 0
	for i := 0; i < g.N; i++ {
		d := 0.0
		from[i] = -1
		for _, p := range g.Preds[i] {
			if dist[p] > d {
				d = dist[p]
				from[i] = int(p)
			}
		}
		dist[i] = d + cost(i)
		if dist[i] > dist[best] {
			best = i
		}
	}
	for i := best; i != -1; i = from[i] {
		path = append(path, i)
	}
	// Reverse into execution order.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return dist[best], path
}

// Stats summarizes the parallel structure of a dependency graph.
type Stats struct {
	Iterations     int
	Edges          int
	Levels         int
	MaxLevelWidth  int
	MeanLevelWidth float64
	// CriticalPathLen is the unweighted critical path (iterations on the
	// longest chain).
	CriticalPathLen int
	// MaxSpeedup is Iterations / CriticalPathLen: the speedup an unbounded
	// number of processors could achieve with unit iteration costs and zero
	// overhead.
	MaxSpeedup float64
	// Independent reports whether the loop has no cross-iteration true
	// dependencies at all (a doall loop).
	Independent bool
}

// Analyze computes summary statistics for the graph.
func (g *Graph) Analyze() Stats {
	ls := g.LevelsInto(nil)
	st := Stats{Iterations: g.N, Edges: g.Edges, Levels: ls.Count(), MaxLevelWidth: ls.MaxWidth()}
	if st.Levels > 0 {
		st.MeanLevelWidth = float64(g.N) / float64(st.Levels)
	}
	cp, _ := g.CriticalPath(nil)
	st.CriticalPathLen = int(cp)
	if cp > 0 {
		st.MaxSpeedup = float64(g.N) / cp
	}
	st.Independent = g.Edges == 0
	return st
}

// String renders the statistics in a compact single-line form.
func (s Stats) String() string {
	return fmt.Sprintf("iters=%d edges=%d levels=%d maxWidth=%d critPath=%d maxSpeedup=%.2f",
		s.Iterations, s.Edges, s.Levels, s.MaxLevelWidth, s.CriticalPathLen, s.MaxSpeedup)
}

// IsTopologicalOrder reports whether the permutation order (order[k] = the
// iteration executed at position k) respects every dependency edge, i.e.
// every iteration appears after all of its predecessors.
func (g *Graph) IsTopologicalOrder(order []int) bool {
	if len(order) != g.N {
		return false
	}
	pos := make([]int, g.N)
	seen := make([]bool, g.N)
	for k, it := range order {
		if it < 0 || it >= g.N || seen[it] {
			return false
		}
		seen[it] = true
		pos[it] = k
	}
	for i := 0; i < g.N; i++ {
		for _, p := range g.Preds[i] {
			if pos[p] >= pos[i] {
				return false
			}
		}
	}
	return true
}

// ParallelismProfile returns, for each level, the number of iterations in
// that level — the "width" of each wavefront. It is the profile a level
// scheduled (doall-per-wavefront) execution would exploit.
func (g *Graph) ParallelismProfile() []int {
	ls := g.LevelsInto(nil)
	widths := make([]int, ls.Count())
	for l := range widths {
		widths[l] = len(ls.LevelMembers(l))
	}
	return widths
}
