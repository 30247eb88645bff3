package graph

import (
	"container/heap"
	"fmt"
	"testing"
)

// Parity fence: the compiled search must return exactly the oracle's paths
// (same edges, same order), bit-identical distances and the same error text.

func (s *splitMix) intn(n int) int { return int(s.next() % uint64(n)) }

// randomMultigraph draws a multigraph with cycles and parallel edges and
// integer weights in [0, maxW]; with negative set, one edge weighs -1.
func randomMultigraph(rng *splitMix, n, m, maxW int, negative bool) (*Graph, WeightFunc) {
	g := New()
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprint(i))
	}
	w := make([]float64, 0, m)
	for len(w) < m {
		u, v := NodeID(rng.intn(n)), NodeID(rng.intn(n))
		if u == v {
			continue
		}
		g.MustAddEdge(u, v)
		w = append(w, float64(rng.intn(maxW+1)))
	}
	if negative {
		w[rng.intn(m)] = -1
	}
	return g, func(e EdgeID) float64 { return w[e] }
}

// unitGrid is an r×c grid with edges both ways between neighbours.
func unitGrid(r, c int) *Graph {
	g := New()
	for i := 0; i < r*c; i++ {
		g.MustAddNode(fmt.Sprint(i))
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := NodeID(i*c + j)
			if j+1 < c {
				g.MustAddEdge(v, v+1)
				g.MustAddEdge(v+1, v)
			}
			if i+1 < r {
				g.MustAddEdge(v, v+NodeID(c))
				g.MustAddEdge(v+NodeID(c), v)
			}
		}
	}
	return g
}

func samePaths(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func checkKParity(t *testing.T, g *Graph, wf WeightFunc, s, d NodeID, k int) {
	t.Helper()
	want, wantErr := oracleKShortestPaths(g, s, d, k, wf)
	got, gotErr := g.KShortestPaths(s, d, k, wf)
	if s == d && wantErr == nil {
		// The oracle's one empty path is the source-equals-sink defect.
		wantErr = fmt.Errorf("%w: source equals sink (node %d)", ErrNoPath, s)
		want = nil
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !samePaths(got, want) {
		t.Fatalf("KShortestPaths(%d, %d, k=%d) = %v, %v; oracle %v, %v", s, d, k, got, gotErr, want, wantErr)
	}
}

func checkShortestParity(t *testing.T, g *Graph, wf WeightFunc, s, d NodeID) {
	t.Helper()
	want, wantDist, wantErr := oracleShortestPath(g, s, d, wf)
	got, gotDist, gotErr := g.ShortestPath(s, d, wf)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !got.Equal(want) || gotDist != wantDist {
		t.Fatalf("ShortestPath(%d, %d) = %v %v, %v; oracle %v %v, %v", s, d, got, gotDist, gotErr, want, wantDist, wantErr)
	}
}

func TestParityRandomMultigraphs(t *testing.T) {
	rng := newSplitMix(1)
	ks := []int{1, 3, 8}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.intn(8)
		g, wf := randomMultigraph(rng, n, n+rng.intn(3*n), 3, trial%10 == 9)
		for s := NodeID(0); int(s) < n; s++ {
			for d := NodeID(0); int(d) < n; d++ {
				checkShortestParity(t, g, wf, s, d)
				checkKParity(t, g, wf, s, d, ks[rng.intn(len(ks))])
			}
		}
	}
}

func TestParityUnitGrids(t *testing.T) {
	unit := func(EdgeID) float64 { return 1 }
	for _, rc := range [][2]int{{3, 3}, {4, 5}, {6, 6}} {
		g := unitGrid(rc[0], rc[1])
		n := NodeID(g.NumNodes())
		pairs := [][2]NodeID{{0, n - 1}, {n - 1, 0}, {NodeID(rc[1] - 1), n - NodeID(rc[1])}, {1, n / 2}}
		for _, p := range pairs {
			checkShortestParity(t, g, unit, p[0], p[1])
			for _, k := range []int{8, 16} {
				checkKParity(t, g, unit, p[0], p[1], k)
			}
		}
	}
}

func TestParityErrors(t *testing.T) {
	g, s, d := buildDiamond(t)
	checkKParity(t, g, unitWeight, s, d, 0)
	checkKParity(t, g, unitWeight, NodeID(50), d, 2)
	checkKParity(t, g, unitWeight, s, NodeID(50), 2)
	checkKParity(t, g, unitWeight, d, s, 2)
	checkShortestParity(t, g, unitWeight, NodeID(-1), d)
	negative := func(EdgeID) float64 { return -1 }
	checkKParity(t, g, negative, s, d, 2)
	checkShortestParity(t, g, negative, s, d)
}

// The typed heap must pop equal distances in container/heap's order.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := newSplitMix(7)
	var s search
	ref := &nodeHeap{}
	for op := 0; op < 20000; op++ {
		if ref.Len() == 0 || rng.intn(3) > 0 {
			x := heapEntry{dist: float64(rng.intn(6)), node: int32(op)}
			s.push(x)
			heap.Push(ref, nodeDist{node: NodeID(x.node), dist: x.dist})
			continue
		}
		got, want := s.pop(), heap.Pop(ref).(nodeDist)
		if NodeID(got.node) != want.node || got.dist != want.dist {
			t.Fatalf("op %d: popped %+v, container/heap %+v", op, got, want)
		}
	}
}
