package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// TestWarmWorkspaceMatchesFresh runs every fence case on one workspace that
// earlier runs have left dirty, and checks each run's digest against the
// fence's, which the case produces on no workspace. Before each run the
// workspace has run the case's engine in one of four ways, taken in turn
// so that every case meets all four and, across the cases, every mode
// meets each of them:
//   - on the same instance, so the run re-arms the evaluator that run
//     kept;
//   - on another fence instance, so the run builds over that instance's
//     slabs;
//   - on a Derived sibling, which shares the instance's incidence but is
//     another instance;
//   - on the same instance, cancelled at a phase start (the per-agent
//     engines abandon that phase mid-way), so the run re-arms the
//     evaluator a cancelled run kept.
func TestWarmWorkspaceMatchesFresh(t *testing.T) {
	cases := fenceCases(t)
	var insts []*flow.Instance
	for _, c := range cases {
		if len(insts) == 0 || insts[len(insts)-1] != c.inst {
			insts = append(insts, c.inst)
		}
	}
	var mismatches []string
	for ci, c := range cases {
		other := insts[0]
		if other == c.inst {
			other = insts[1]
		}
		scale := make([]float64, c.inst.NumCommodities())
		for i := range scale {
			scale[i] = 0.5
		}
		sibling, err := c.inst.Derive(nil, scale)
		if err != nil {
			t.Fatal(err)
		}
		priors := []struct {
			name string
			run  func(ws *flow.Workspace)
		}{
			{"same", func(ws *flow.Workspace) { warmRun(t, ws, c.inst, c.engine, -1) }},
			{"other", func(ws *flow.Workspace) { warmRun(t, ws, other, c.engine, -1) }},
			{"sibling", func(ws *flow.Workspace) { warmRun(t, ws, sibling, c.engine, -1) }},
			{"cancelled", func(ws *flow.Workspace) { warmRun(t, ws, c.inst, c.engine, 2) }},
		}
		pol := mustReplicator(t, c.inst)
		ws := flow.NewWorkspace()
		for mi, mode := range fenceModes {
			prior := priors[(ci+mi)%len(priors)]
			prior.run(ws)
			key := c.name + "/" + mode.name
			if got := fenceDigest(t, c.inst, pol, c.engine, mode, WithWorkspace(ws)); got != fenceDigests[key] {
				mismatches = append(mismatches, fmt.Sprintf("after %s: %s", prior.name, key))
			}
		}
	}
	if len(mismatches) > 0 {
		sort.Strings(mismatches)
		t.Fatalf("%d warm runs differ from the fence:\n%s", len(mismatches), strings.Join(mismatches, "\n"))
	}
}

// warmRun runs eng on inst for five phases on ws, cancelling the context at
// phase cancelAt's start (-1: never).
func warmRun(t *testing.T, ws *flow.Workspace, inst *flow.Instance, eng Engine, cancelAt int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
		if info.Index == cancelAt {
			cancel()
		}
		return false
	})
	sc := Scenario{Engine: eng, Instance: inst, Policy: mustReplicator(t, inst), UpdatePeriod: 0.2, Horizon: 1}
	if _, err := Run(ctx, sc, WithObserver(obs), WithWorkspace(ws)); err != nil && !IsCancellation(err) {
		t.Fatal(err)
	}
}

// TestWarmRunSetupIgnoresDeadEdges pins what a warm run's set-up costs. On
// a workspace an earlier run on the same instance warmed, each engine's run
// allocates the same bytes, up to a small constant, whether or not the
// graph carries 10⁵ edges no path uses: the run re-arms the evaluator the
// workspace kept, which touches the live edges only, where building one
// allocates and writes per-edge state. Every warm run must still match a
// run on no workspace bit for bit.
func TestWarmRunSetupIgnoresDeadEdges(t *testing.T) {
	const (
		dead = 100_000
		// slack is the allowed difference in bytes per run; an evaluator
		// built from scratch adds 4 bytes of marks per dead edge.
		slack = 1024
	)
	insts := [2]*flow.Instance{paddedBraess(t, 0), paddedBraess(t, dead)}
	cases := []struct {
		name string
		eng  Engine
	}{
		{"fluid-euler", Fluid{Integrator: dynamics.Euler}},
		{"fluid-rk4", Fluid{Integrator: dynamics.RK4}},
		{"fluid-uniformization", Fluid{Integrator: dynamics.Uniformization}},
		{"fresh-euler", Fluid{Fresh: true, Integrator: dynamics.Euler, Step: 0.25}},
		{"bestresponse", BestResponse{}},
		{"agents-w1", Agents{N: 500, Seed: 7, Workers: 1}},
		{"agents-w2", Agents{N: 500, Seed: 7, Workers: 2}},
		{"agents-event", Agents{N: 500, Seed: 7, Workers: 2, EventDriven: true}},
		{"count", Count{N: 1000000, Seed: 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var bytes [2]uint64
			for k, inst := range insts {
				sc := Scenario{Engine: c.eng, Instance: inst, Policy: mustReplicator(t, inst), UpdatePeriod: 0.25, Horizon: 1}
				want, err := Run(context.Background(), sc)
				if err != nil {
					t.Fatal(err)
				}
				ws := flow.NewWorkspace()
				run := func() *Result {
					res, err := Run(context.Background(), sc, WithWorkspace(ws))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				run()
				bytes[k] = math.MaxUint64
				for r := 0; r < 3; r++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					got := run()
					runtime.ReadMemStats(&after)
					bytes[k] = min(bytes[k], after.TotalAlloc-before.TotalAlloc)
					mustMatchResult(t, got, want)
				}
			}
			t.Logf("warm run: %d bytes, %d with %d dead edges", bytes[0], bytes[1], dead)
			if d := int64(bytes[1]) - int64(bytes[0]); d > slack || d < -slack {
				t.Fatalf("%d dead edges change a warm run's allocation by %d bytes (%d -> %d), want within %d",
					dead, d, bytes[0], bytes[1], slack)
			}
		})
	}
}

// paddedBraess is Braess's network plus dead parallel edges between two
// nodes no path reaches: the same paths, in the same order, over a graph
// with dead more edges.
func paddedBraess(t *testing.T, dead int) *flow.Instance {
	t.Helper()
	g := graph.New()
	s, a, b, z := g.MustAddNode("s"), g.MustAddNode("a"), g.MustAddNode("b"), g.MustAddNode("t")
	g.MustAddEdge(s, a)
	g.MustAddEdge(s, b)
	g.MustAddEdge(a, z)
	g.MustAddEdge(b, z)
	g.MustAddEdge(a, b)
	lats := []latency.Function{
		latency.Linear{Slope: 1}, latency.Constant{C: 1}, latency.Constant{C: 1},
		latency.Linear{Slope: 1}, latency.Constant{C: 0},
	}
	u, v := g.MustAddNode("u"), g.MustAddNode("v")
	for i := 0; i < dead; i++ {
		g.MustAddEdge(u, v)
		lats = append(lats, latency.Linear{Slope: 1, Offset: 1})
	}
	inst, err := flow.NewInstance(g, lats, []flow.Commodity{{Name: "c0", Source: s, Sink: z, Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// mustMatchResult fails unless got's terminal fields equal want's bit for
// bit.
func mustMatchResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Phases != want.Phases || got.UnsatisfiedPhases != want.UnsatisfiedPhases || got.Stopped != want.Stopped {
		t.Fatalf("phases/unsatisfied/stopped %d/%d/%v, want %d/%d/%v",
			got.Phases, got.UnsatisfiedPhases, got.Stopped, want.Phases, want.UnsatisfiedPhases, want.Stopped)
	}
	if math.Float64bits(got.FinalPotential) != math.Float64bits(want.FinalPotential) {
		t.Fatalf("final potential %v, want %v", got.FinalPotential, want.FinalPotential)
	}
	for g := range want.Final {
		if math.Float64bits(got.Final[g]) != math.Float64bits(want.Final[g]) {
			t.Fatalf("final[%d] %v, want %v", g, got.Final[g], want.Final[g])
		}
	}
}
