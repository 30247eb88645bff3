package flow

import (
	"fmt"
	"slices"
	"testing"

	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// balanceChunks must always produce a valid partition: parts+1
// nondecreasing boundaries from 0 to the row count, regardless of weight
// skew or parts exceeding rows — the parallel phases index chunks blindly.
func TestBalanceChunksPartitions(t *testing.T) {
	cases := []struct {
		name   string
		starts []int32
		parts  int
	}{
		{"uniform", []int32{0, 2, 4, 6, 8, 10, 12, 14, 16}, 4},
		{"skewed-front", []int32{0, 100, 101, 102, 103, 104}, 3},
		{"skewed-back", []int32{0, 1, 2, 3, 4, 200}, 3},
		{"one-row", []int32{0, 7}, 4},
		{"more-parts-than-rows", []int32{0, 1, 2, 3}, 8},
		{"single-part", []int32{0, 5, 9}, 1},
		{"all-empty-rows", []int32{0, 0, 0, 0}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := len(c.starts) - 1
			bounds := balanceChunks(c.starts, c.parts)
			if len(bounds) != c.parts+1 {
				t.Fatalf("len(bounds) = %d, want %d", len(bounds), c.parts+1)
			}
			if bounds[0] != 0 || bounds[c.parts] != int32(n) {
				t.Fatalf("bounds endpoints %d..%d, want 0..%d", bounds[0], bounds[c.parts], n)
			}
			for i := 0; i < c.parts; i++ {
				if bounds[i] > bounds[i+1] {
					t.Fatalf("bounds not nondecreasing: %v", bounds)
				}
			}
		})
	}
}

// The kernel's live list is exactly the edges some path uses, ascending,
// and the parallel crossover counts live work: a two-edge path beside
// 2¹⁵ dead edges stays serial whatever the worker count, unless forced.
func TestLiveEdgeListAndCrossover(t *testing.T) {
	g := graph.New()
	s, a, d := g.MustAddNode("s"), g.MustAddNode("a"), g.MustAddNode("t")
	lats := []latency.Function{}
	add := func(from, to graph.NodeID) {
		g.MustAddEdge(from, to)
		lats = append(lats, latency.Linear{Slope: 1})
	}
	for i := 0; i < 1<<14; i++ {
		add(d, s)
	}
	add(s, a)
	for i := 0; i < 1<<14; i++ {
		add(a, s)
	}
	add(a, d)
	inst, err := NewInstance(g, lats, []Commodity{{Source: s, Sink: d, Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(inst, nil)
	if want := []int32{1 << 14, 1<<15 + 1}; !slices.Equal(ev.inc.live, want) {
		t.Fatalf("live edges %v, want %v", ev.inc.live, want)
	}
	ev.par = 8
	if ev.parallelEval() {
		t.Fatal("a pass over 2 live edges took the parallel path")
	}
	ev.SetParallelism(8)
	if !ev.parallelEval() {
		t.Fatal("forced parallelism did not take the parallel path")
	}
}

// Re-arming a kept evaluator restores what a build sets: the default
// worker count and crossover, no pending touched edges, not evaluated and
// the potential stale. The mark epoch carries on, so the marks of the
// earlier run can never collide with the next one's.
func TestRearmRestoresBuildState(t *testing.T) {
	// Six disjoint two-edge paths and a dead edge: a one-path change
	// touches a sixth of the incidence, so Refresh takes the incremental
	// path.
	g := graph.New()
	s, d := g.MustAddNode("s"), g.MustAddNode("t")
	var lats []latency.Function
	for i := 0; i < 6; i++ {
		m := g.MustAddNode(fmt.Sprint("m", i))
		g.MustAddEdge(s, m)
		g.MustAddEdge(m, d)
		lats = append(lats, latency.Linear{Slope: float64(i + 1)}, latency.Constant{C: 1})
	}
	g.MustAddEdge(d, s)
	lats = append(lats, latency.Constant{C: 1})
	inst, err := NewInstance(g, lats, []Commodity{{Source: s, Sink: d, Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ev := NewEvaluator(inst, ws)
	ev.SetParallelism(8)
	f := inst.UniformFlow()
	ev.Eval(f)
	f[0] *= 2
	ev.Refresh(f, 0)
	ev.Potential()
	epoch := ev.epoch
	if len(ev.touched) == 0 || !ev.evaluated || !ev.potValid || epoch == 0 {
		t.Fatalf("the incremental refresh left no state to reset: %+v", ev)
	}
	ws.Reset()
	if NewEvaluator(inst, ws) != ev {
		t.Fatal("not re-armed")
	}
	if ev.par != defaultEvalWorkers() || ev.forcePar {
		t.Errorf("parallelism %d (forced %v), want the default %d", ev.par, ev.forcePar, defaultEvalWorkers())
	}
	if len(ev.touched) != 0 || ev.evaluated || ev.potValid {
		t.Errorf("touched %v, evaluated %v, potential valid %v: want none, false, false", ev.touched, ev.evaluated, ev.potValid)
	}
	if ev.epoch != epoch {
		t.Errorf("epoch %d, want %d carried on", ev.epoch, epoch)
	}
}
