package graph

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKShortestPathsDiamond(t *testing.T) {
	g, s, d := buildDiamond(t)
	weights := map[EdgeID]float64{0: 1, 1: 5, 2: 1, 3: 1}
	wf := func(e EdgeID) float64 { return weights[e] }
	paths, err := g.KShortestPaths(s, d, 3, wf)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 { // only two loopless paths exist
		t.Fatalf("got %d paths: %v", len(paths), paths)
	}
	if pathWeight(paths[0], wf) != 2 || pathWeight(paths[1], wf) != 6 {
		t.Errorf("weights = %g, %g", pathWeight(paths[0], wf), pathWeight(paths[1], wf))
	}
}

func TestKShortestPathsOrderAndCount(t *testing.T) {
	// Braess-like graph with 3 paths of distinct weights.
	g := New()
	s := g.MustAddNode("s")
	a := g.MustAddNode("a")
	b := g.MustAddNode("b")
	d := g.MustAddNode("t")
	w := map[EdgeID]float64{}
	w[g.MustAddEdge(s, a)] = 1
	w[g.MustAddEdge(s, b)] = 4
	w[g.MustAddEdge(a, d)] = 10
	w[g.MustAddEdge(b, d)] = 4
	w[g.MustAddEdge(a, b)] = 1
	wf := func(e EdgeID) float64 { return w[e] }
	paths, err := g.KShortestPaths(s, d, 5, wf)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	// Costs: s-a-b-t = 6, s-b-t = 8, s-a-t = 11.
	want := []float64{6, 8, 11}
	for i, p := range paths {
		if got := pathWeight(p, wf); math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("path %d cost = %g, want %g (%v)", i, got, want[i], p)
		}
	}
	// k=1 returns just the shortest.
	one, err := g.KShortestPaths(s, d, 1, wf)
	if err != nil || len(one) != 1 || pathWeight(one[0], wf) != 6 {
		t.Errorf("k=1: %v, %v", one, err)
	}
}

func TestKShortestPathsErrors(t *testing.T) {
	g, s, d := buildDiamond(t)
	if _, err := g.KShortestPaths(s, d, 0, unitWeight); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := g.KShortestPaths(d, s, 2, unitWeight); !errors.Is(err, ErrNoPath) {
		t.Errorf("unreachable error = %v", err)
	}
	// A commodity from a node to itself has no path, as in EnumeratePaths.
	if paths, err := g.KShortestPaths(s, s, 2, unitWeight); !errors.Is(err, ErrNoPath) || paths != nil {
		t.Errorf("source equals sink: %v, %v; want ErrNoPath", paths, err)
	}
}

func TestKShortestPathsLooplessness(t *testing.T) {
	// Graph with a tempting cycle: all returned paths must be simple.
	g := New()
	s := g.MustAddNode("s")
	a := g.MustAddNode("a")
	b := g.MustAddNode("b")
	d := g.MustAddNode("t")
	w := map[EdgeID]float64{}
	w[g.MustAddEdge(s, a)] = 1
	w[g.MustAddEdge(a, b)] = 0.1
	w[g.MustAddEdge(b, a)] = 0.1 // cycle a<->b
	w[g.MustAddEdge(a, d)] = 2
	w[g.MustAddEdge(b, d)] = 2
	wf := func(e EdgeID) float64 { return w[e] }
	paths, err := g.KShortestPaths(s, d, 10, wf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if !p.Valid(g) {
			t.Errorf("non-simple path returned: %v", p)
		}
	}
	if len(paths) != 2 {
		t.Errorf("got %d loopless paths, want 2", len(paths))
	}
}

// Property: Yen's first min(k, all) paths agree with brute-force enumeration
// sorted by weight on random-weight layered graphs.
func TestKShortestMatchesEnumeration(t *testing.T) {
	prop := func(seed int64) bool {
		rng := newSplitMix(uint64(seed))
		g := New()
		s := g.MustAddNode("s")
		a := g.MustAddNode("a")
		b := g.MustAddNode("b")
		c := g.MustAddNode("c")
		d := g.MustAddNode("t")
		pairs := [][2]NodeID{{s, a}, {s, b}, {a, c}, {b, c}, {a, b}, {c, d}, {b, d}, {a, d}}
		w := map[EdgeID]float64{}
		for _, pr := range pairs {
			w[g.MustAddEdge(pr[0], pr[1])] = 0.1 + rng.float64()*3
		}
		wf := func(e EdgeID) float64 { return w[e] }
		const k = 4
		yen, err := g.KShortestPaths(s, d, k, wf)
		if err != nil {
			return false
		}
		all, err := g.EnumeratePaths(s, d, 0)
		if err != nil {
			return false
		}
		costs := make([]float64, len(all))
		for i, p := range all {
			costs[i] = pathWeight(p, wf)
		}
		sort.Float64s(costs)
		n := k
		if len(costs) < n {
			n = len(costs)
		}
		if len(yen) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if math.Abs(pathWeight(yen[i], wf)-costs[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
