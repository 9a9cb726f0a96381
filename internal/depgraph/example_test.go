package depgraph_test

import (
	"fmt"

	"doacross/internal/depgraph"
)

// ExampleBuild constructs the true-dependency graph of a loop whose
// iteration i writes element i and reads element i-2: only flow dependencies
// appear, anti-dependencies are discarded because the doacross renames its
// writes.
func ExampleBuild() {
	g := depgraph.Build(depgraph.Access{
		N:      6,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			if i < 2 {
				return nil
			}
			return []int{i - 2}
		},
	})
	fmt.Println("edges:", g.Edges)
	fmt.Println("preds of 5:", g.Preds[5])

	fmt.Println("levels:", g.LevelsInto(nil).Level)

	length, path := g.CriticalPath(nil)
	fmt.Println("critical path:", length, path)
	// Output:
	// edges: 4
	// preds of 5: [3]
	// levels: [0 0 1 1 2 2]
	// critical path: 3 [0 2 4]
}

// ExampleGraph_Analyze summarizes the parallel structure of a wavefront
// (grid) dependency pattern — the structure of the paper's triangular solves.
func ExampleGraph_Analyze() {
	const nx, ny = 3, 3
	g := depgraph.Build(depgraph.Access{
		N:      nx * ny,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(it int) []int {
			i, j := it/ny, it%ny
			var r []int
			if i > 0 {
				r = append(r, (i-1)*ny+j)
			}
			if j > 0 {
				r = append(r, it-1)
			}
			return r
		},
	})
	st := g.Analyze()
	fmt.Println(st)
	// Output:
	// iters=9 edges=12 levels=5 maxWidth=3 critPath=5 maxSpeedup=1.80
}
