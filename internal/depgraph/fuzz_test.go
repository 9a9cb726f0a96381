package depgraph

import (
	"testing"
)

// graphFromFuzzInput decodes an arbitrary byte string into a valid
// dependency DAG: iteration i writes element i, and successive byte pairs
// (a, b) add a read edge from a smaller to a larger iteration. Every input
// decodes to some graph, so the fuzzer explores shapes rather than parse
// errors.
func graphFromFuzzInput(data []byte) *Graph {
	n := 1
	if len(data) > 0 {
		n = 1 + int(data[0])%96
	}
	reads := make([][]int, n)
	for k := 1; k+1 < len(data); k += 2 {
		a := int(data[k]) % n
		b := int(data[k+1]) % n
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		reads[b] = append(reads[b], a)
	}
	return Build(Access{
		N:      n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return reads[i] },
	})
}

// FuzzLevelsInto cross-checks the allocation-free CSR decomposition against
// a naive reference on arbitrary DAGs: per-iteration levels must be minimal
// (0 for roots, 1 + max predecessor level otherwise — which implies
// topological validity: every predecessor sits in a strictly earlier
// level), and the CSR grouping must list every iteration exactly once, in
// its level, in ascending order.
func FuzzLevelsInto(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3})             // chain
	f.Add([]byte{8, 0, 4, 1, 4, 2, 5, 3, 5, 4, 6}) // two joins
	f.Add([]byte{95, 0, 94, 94, 0, 7, 7})          // extremes and self-loops
	f.Add([]byte{16, 0, 8, 8, 12, 12, 14, 14, 15}) // unbalanced chain
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromFuzzInput(data)

		for i := 0; i < g.N; i++ {
			for _, p := range g.Preds[i] {
				if int(p) >= i {
					t.Fatalf("iteration %d has non-forward predecessor %d", i, p)
				}
			}
		}
		want := naiveLevels(g)

		ls := g.LevelsInto(nil)
		if got := ls.Count(); g.N > 0 {
			maxLevel := int32(0)
			for _, l := range want {
				if l > maxLevel {
					maxLevel = l
				}
			}
			if got != int(maxLevel)+1 {
				t.Fatalf("level count %d, want %d", got, maxLevel+1)
			}
		}
		for i := 0; i < g.N; i++ {
			if ls.Level[i] != want[i] {
				t.Fatalf("iteration %d: level %d, want minimal %d", i, ls.Level[i], want[i])
			}
			for _, p := range g.Preds[i] {
				if ls.Level[p] >= ls.Level[i] {
					t.Fatalf("iteration %d (level %d) not after predecessor %d (level %d)",
						i, ls.Level[i], p, ls.Level[p])
				}
			}
		}

		// CSR grouping: every iteration exactly once, in its own level's
		// segment, each segment ascending.
		seen := make([]bool, g.N)
		for l := 0; l < ls.Count(); l++ {
			members := ls.LevelMembers(l)
			for k, it := range members {
				if seen[it] {
					t.Fatalf("iteration %d listed twice", it)
				}
				seen[it] = true
				if ls.Level[it] != int32(l) {
					t.Fatalf("iteration %d in segment %d but has level %d", it, l, ls.Level[it])
				}
				if k > 0 && members[k-1] >= it {
					t.Fatalf("level %d members not ascending: %v", l, members)
				}
			}
			if len(members) == 0 {
				t.Fatalf("level %d is empty", l)
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("iteration %d missing from the decomposition", i)
			}
		}

		// Buffer reuse: decomposing a second, smaller graph into the same
		// LevelSet must not be polluted by the first decomposition.
		g2 := graphFromFuzzInput(append([]byte{byte(g.N/2 + 1)}, data...))
		if g2.N <= g.N {
			ls2 := g2.LevelsInto(ls)
			for i := 0; i < g2.N; i++ {
				l := int32(0)
				for _, p := range g2.Preds[i] {
					if ls2.Level[p]+1 > l {
						l = ls2.Level[p] + 1
					}
				}
				if ls2.Level[i] != l {
					t.Fatalf("reused buffers: iteration %d level %d, want %d", i, ls2.Level[i], l)
				}
			}
		}
	})
}

// accessFromFuzzInput decodes an arbitrary byte string into an access
// pattern and its data length. data[0] sets n iterations over 2n+1
// elements; iteration i writes element (2i+data[1]) mod 2n+1, so n+1
// elements stay unwritten. Each later byte pair (a, b) gives iteration a%n
// one read chosen by b%4: the element of iteration b/4 (a true dependency,
// a self read or a read of a later writer's element), its own element, an
// element nobody writes (past the last written one at times), or a repeat of
// its previous read.
func accessFromFuzzInput(data []byte) (Access, int) {
	n, off := 1, 0
	if len(data) > 0 {
		n = 1 + int(data[0])%64
	}
	if len(data) > 1 {
		off = int(data[1])
	}
	dataLen := 2*n + 1
	written := make([]int, n)
	isWritten := make([]bool, dataLen+1)
	for i := range written {
		written[i] = (2*i + off) % dataLen
		isWritten[written[i]] = true
	}
	var unwritten []int
	for e, ok := range isWritten {
		if !ok {
			unwritten = append(unwritten, e)
		}
	}
	reads := make([][]int, n)
	for k := 2; k+1 < len(data); k += 2 {
		i, b := int(data[k])%n, int(data[k+1])
		var e int
		switch b % 4 {
		case 0:
			e = written[(b/4)%n]
		case 1:
			e = written[i]
		case 2:
			e = unwritten[(b/4)%len(unwritten)]
		default:
			if len(reads[i]) == 0 {
				continue
			}
			e = reads[i][len(reads[i])-1]
		}
		reads[i] = append(reads[i], e)
	}
	return Access{
		N:      n,
		Writes: func(i int) []int { return written[i : i+1] },
		Reads:  func(i int) []int { return reads[i] },
	}, dataLen
}

// FuzzBuild cross-checks the one predecessor scan against the naive
// map-based reference builder on arbitrary access patterns mixing true,
// duplicate, self, later-writer and unwritten reads: Build (the sequential
// front end sizing its own writer index) and BuildParallelFromWriterIndex
// under a concurrent runner must both produce the reference graph exactly,
// predecessors sorted and deduplicated, successors and edge count
// consistent.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 0, 2, 4, 3, 8})                 // chain-like true dependencies
	f.Add([]byte{8, 3, 5, 1, 5, 3, 5, 0, 5, 4, 2, 28})    // self, repeat, true, later writer
	f.Add([]byte{16, 7, 9, 2, 9, 6, 9, 10, 9, 3, 9, 255}) // unwritten reads and repeats
	f.Add([]byte{63, 200, 62, 0, 62, 252, 0, 249, 0, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, dataLen := accessFromFuzzInput(data)
		want := naiveBuild(a)
		for _, got := range []*Graph{
			Build(a),
			BuildParallelFromWriterIndex(a.N, denseWriter(a, dataLen), a.Reads, goParallelFor),
		} {
			if !graphsEqual(want, got) {
				t.Fatalf("graph differs from the reference:\ngot preds  %v\nwant preds %v", got.Preds, want.Preds)
			}
		}
	})
}
