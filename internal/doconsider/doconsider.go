// Package doconsider implements the iteration-reordering transformation the
// paper applies before the preprocessed doacross in Section 3.2 (Table 1) and
// attributes to Saltz, Mirchandaney & Crowley, "The doconsider loop" (ICS
// 1989): the loop iterations are executed in a more advantageous order that
// leaves the inter-iteration dependencies unchanged but reduces the time
// processors spend waiting on them.
//
// All orderings produced here are topological orders of the true-dependency
// graph, so the preprocessed doacross executor can run them without risk of
// deadlock (core.Options.Order).
package doconsider

import (
	"fmt"
	"sort"

	"doacross/internal/depgraph"
)

// Strategy selects how the new iteration order is derived from the dependency
// graph.
type Strategy int

const (
	// Natural keeps the original order (the identity permutation). It exists
	// so experiments can treat "no reordering" uniformly.
	Natural Strategy = iota
	// Level orders iterations by wavefront: all iterations with no
	// unsatisfied predecessors first, then those that depend only on the
	// first wave, and so on. Within a level the original order is kept.
	// This is the classic doconsider ordering for sparse triangular solves.
	Level
	// LevelInterleaved also orders by wavefront but round-robins the
	// iterations of each level across positions, so a block distribution of
	// positions to processors spreads every level over all processors.
	LevelInterleaved
	// CriticalPath uses list scheduling by longest remaining chain: at every
	// step the ready iteration with the greatest height in the dependency
	// graph comes first. It is the greedy upper bound on what reordering can
	// achieve.
	CriticalPath
)

// Strategies lists all reordering strategies (used by the ablation
// experiments).
var Strategies = []Strategy{Natural, Level, LevelInterleaved, CriticalPath}

// String returns a short name for the strategy.
func (s Strategy) String() string {
	switch s {
	case Natural:
		return "natural"
	case Level:
		return "level"
	case LevelInterleaved:
		return "level-interleaved"
	case CriticalPath:
		return "critical-path"
	default:
		return "unknown"
	}
}

// Order computes the execution order for the graph under the strategy:
// position k of the result holds the original index of the iteration to
// execute at that position. The result is always a valid topological order of
// g.
func Order(g *depgraph.Graph, s Strategy) []int {
	switch s {
	case Level:
		return levelOrder(g)
	case LevelInterleaved:
		return levelInterleavedOrder(g)
	case CriticalPath:
		return criticalPathOrder(g)
	default:
		order := make([]int, g.N)
		for i := range order {
			order[i] = i
		}
		return order
	}
}

// Validate checks that order is a permutation of 0..g.N-1 that respects every
// dependency edge of g, which is the precondition for handing it to
// core.Options.Order.
func Validate(g *depgraph.Graph, order []int) error {
	if len(order) != g.N {
		return fmt.Errorf("doconsider: order has %d entries for %d iterations", len(order), g.N)
	}
	if !g.IsTopologicalOrder(order) {
		return fmt.Errorf("doconsider: order is not a topological order of the dependency graph")
	}
	return nil
}

func levelOrder(g *depgraph.Graph) []int {
	order := make([]int, 0, g.N)
	for _, it := range g.LevelsInto(nil).Members {
		order = append(order, int(it))
	}
	return order
}

func levelInterleavedOrder(g *depgraph.Graph) []int {
	ls := g.LevelsInto(nil)
	order := make([]int, 0, g.N)
	// Keep whole levels contiguous (correctness requires predecessors
	// earlier) but interleave *within* each level by striding, so that a
	// block distribution of positions hands neighbouring iterations of the
	// same level to different processors.
	const stride = 16
	for l := 0; l < ls.Count(); l++ {
		lvl := ls.LevelMembers(l)
		for offset := 0; offset < stride; offset++ {
			for k := offset; k < len(lvl); k += stride {
				order = append(order, int(lvl[k]))
			}
		}
	}
	return order
}

// criticalPathOrder performs list scheduling by decreasing height (length of
// the longest chain that starts at the iteration).
func criticalPathOrder(g *depgraph.Graph) []int {
	// height[i] = 1 + max(height of successors); computed by a reverse sweep
	// (edges always point from lower to higher iteration index).
	height := make([]int, g.N)
	for i := g.N - 1; i >= 0; i-- {
		h := 0
		for _, s := range g.Succs[i] {
			if height[s] > h {
				h = height[s]
			}
		}
		height[i] = h + 1
	}
	indegree := make([]int, g.N)
	for i := 0; i < g.N; i++ {
		indegree[i] = len(g.Preds[i])
	}
	// Ready iterations sorted by (height desc, index asc).
	ready := make([]int, 0, g.N)
	for i := 0; i < g.N; i++ {
		if indegree[i] == 0 {
			ready = append(ready, i)
		}
	}
	less := func(a, b int) bool {
		if height[a] != height[b] {
			return height[a] > height[b]
		}
		return a < b
	}
	sort.Slice(ready, func(x, y int) bool { return less(ready[x], ready[y]) })

	order := make([]int, 0, g.N)
	for len(ready) > 0 {
		// Pop the best ready iteration (they are kept sorted; removal from
		// the front keeps the cost O(E + V log V) overall because newly
		// released iterations are inserted in place).
		it := ready[0]
		ready = ready[1:]
		order = append(order, it)
		for _, s := range g.Succs[it] {
			indegree[s]--
			if indegree[s] == 0 {
				// Insert s keeping the slice sorted.
				pos := sort.Search(len(ready), func(k int) bool { return less(int(s), ready[k]) })
				ready = append(ready, 0)
				copy(ready[pos+1:], ready[pos:])
				ready[pos] = int(s)
			}
		}
	}
	return order
}

// Plan couples an execution order with summary information used by reports.
type Plan struct {
	Strategy Strategy
	Order    []int
	Levels   int
	// MeanWaitDistance is the average, over all dependency edges, of the
	// number of positions separating the dependent iteration from its
	// predecessor in the new order. Larger distances mean more slack for the
	// doacross pipeline.
	MeanWaitDistance float64
}

// NewPlan builds the order for the strategy and computes its summary.
func NewPlan(g *depgraph.Graph, s Strategy) Plan {
	order := Order(g, s)
	pos := make([]int, g.N)
	for k, it := range order {
		pos[it] = k
	}
	totalDist := 0.0
	edges := 0
	for i := 0; i < g.N; i++ {
		for _, p := range g.Preds[i] {
			totalDist += float64(pos[i] - pos[p])
			edges++
		}
	}
	plan := Plan{Strategy: s, Order: order, Levels: g.LevelsInto(nil).Count()}
	if edges > 0 {
		plan.MeanWaitDistance = totalDist / float64(edges)
	}
	return plan
}
