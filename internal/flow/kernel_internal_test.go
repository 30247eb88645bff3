package flow

import (
	"fmt"
	"slices"
	"testing"

	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// The kernel's live list is exactly the edges some path uses, ascending:
// a two-edge path beside 2¹⁵ dead edges.
func TestLiveEdgeList(t *testing.T) {
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
}

// Re-arming a kept evaluator restores what a build sets: no pending
// touched edges, not evaluated and the potential stale. The mark epoch
// carries on, so the marks of the earlier run can never collide with the
// next one's.
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
	if len(ev.touched) != 0 || ev.evaluated || ev.potValid {
		t.Errorf("touched %v, evaluated %v, potential valid %v: want none, false, false", ev.touched, ev.evaluated, ev.potValid)
	}
	if ev.epoch != epoch {
		t.Errorf("epoch %d, want %d carried on", ev.epoch, epoch)
	}
}
