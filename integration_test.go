package wardrop_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wardrop"
)

func stringsReader(s string) *strings.Reader { return strings.NewReader(s) }

// Cross-module integration tests: each exercises a full pipeline through the
// public API (topology → policy → dynamics → metrics → solver) rather than a
// single package.

// The fluid dynamics' limit point agrees with the Frank–Wolfe solver on every
// canonical topology for both Theorem-6 and Theorem-7 policies.
func TestDynamicsLimitMatchesSolver(t *testing.T) {
	topos := map[string]func() (*wardrop.Instance, error){
		"pigou":   wardrop.Pigou,
		"braess":  wardrop.Braess,
		"links4":  func() (*wardrop.Instance, error) { return wardrop.LinearParallelLinks(4) },
		"twocomm": wardrop.TwoCommodityOverlap,
		"multi":   func() (*wardrop.Instance, error) { return wardrop.MultiCommodityParallel(2, 3) },
	}
	for name, mk := range topos {
		inst, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eq, err := wardrop.SolveEquilibrium(inst, wardrop.SolverOptions{})
		if err != nil {
			t.Fatalf("%s solve: %v", name, err)
		}
		for _, mkPol := range []func(float64) (wardrop.Policy, error){wardrop.Replicator, wardrop.UniformLinear} {
			pol, err := mkPol(inst.LMax())
			if err != nil {
				t.Fatal(err)
			}
			T, err := wardrop.SafeUpdatePeriodFor(pol, inst)
			if err != nil {
				t.Fatal(err)
			}
			res, err := wardrop.Simulate(inst, wardrop.SimConfig{
				Policy: pol, UpdatePeriod: T, Horizon: 2500 * T,
				Integrator: wardrop.Uniformization,
			}, inst.UniformFlow())
			if err != nil {
				t.Fatalf("%s/%s: %v", name, pol.Name(), err)
			}
			// Compare potentials, not flows: equilibria can be non-unique in
			// flow space but Φ* is unique.
			gap := res.FinalPotential - eq.Potential
			if gap > 5e-3 {
				t.Errorf("%s/%s: potential gap %g after %d phases", name, pol.Name(), gap, res.Phases)
			}
		}
	}
}

// Potential descent at the safe period is not an artifact of the uniform
// start: it holds from random feasible starts (property-based).
func TestPotentialDescentFromRandomStarts(t *testing.T) {
	inst, err := wardrop.Braess()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	T, err := wardrop.SafeUpdatePeriodFor(pol, inst)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b, c uint16) bool {
		x := float64(a%997) + 1
		y := float64(b%997) + 1
		z := float64(c%997) + 1
		s := x + y + z
		f0 := wardrop.Flow{x / s, y / s, z / s}
		monotone := true
		prev := math.Inf(1)
		_, err := wardrop.Simulate(inst, wardrop.SimConfig{
			Policy: pol, UpdatePeriod: T, Horizon: 40 * T,
			Integrator: wardrop.Uniformization,
			RunShape: wardrop.RunShape{
				Observer: wardrop.ObserverFunc(func(info wardrop.PhaseInfo) bool {
					if info.Potential > prev+1e-9 {
						monotone = false
					}
					prev = info.Potential
					return false
				}),
			},
		}, f0)
		return err == nil && monotone
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The agent simulator, the event-driven engine and the fluid limit all land
// on the same equilibrium region on a multi-commodity instance.
func TestThreeEnginesAgreeMultiCommodity(t *testing.T) {
	inst, err := wardrop.MultiCommodityParallel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	T, err := wardrop.SafeUpdatePeriodFor(pol, inst)
	if err != nil {
		t.Fatal(err)
	}
	fluid, err := wardrop.Simulate(inst, wardrop.SimConfig{
		Policy: pol, UpdatePeriod: T, Horizon: 400, Integrator: wardrop.Uniformization,
	}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := wardrop.NewAgentSim(inst, wardrop.AgentConfig{
		N: 4000, Policy: pol, UpdatePeriod: T, Horizon: 400, Seed: 1, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := wardrop.NewAgentSim(inst, wardrop.AgentConfig{
		N: 4000, Policy: pol, UpdatePeriod: T, Horizon: 400, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	event, err := sim2.RunEventDriven()
	if err != nil {
		t.Fatal(err)
	}
	if d := batched.Final.MaxAbsDiff(fluid.Final); d > 0.05 {
		t.Errorf("batched engine vs fluid: sup err %g", d)
	}
	if d := event.Final.MaxAbsDiff(fluid.Final); d > 0.05 {
		t.Errorf("event engine vs fluid: sup err %g", d)
	}
}

// K-shortest-path strategy spaces compose with the whole pipeline: on a grid
// whose full path set is larger, the restricted instance still converges to
// a Wardrop equilibrium of the restricted game.
func TestKShortestPipelineOnGrid(t *testing.T) {
	// Build the grid graph manually to apply the K-paths option.
	full, err := wardrop.GridNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	g := full.Graph()
	lats := make([]wardrop.LatencyFunc, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		lats[e] = full.Latency(wardrop.EdgeID(e))
	}
	comms := []wardrop.Commodity{full.Commodity(0)}
	restricted, err := wardrop.NewInstance(g, lats, comms, wardrop.WithKShortestPaths(5))
	if err != nil {
		t.Fatal(err)
	}
	if restricted.NumPaths() != 5 {
		t.Fatalf("restricted paths = %d, want 5", restricted.NumPaths())
	}
	if full.NumPaths() <= 5 {
		t.Fatalf("grid should have more than 5 paths, has %d", full.NumPaths())
	}
	pol, err := wardrop.Replicator(restricted.LMax())
	if err != nil {
		t.Fatal(err)
	}
	T, err := wardrop.SafeUpdatePeriodFor(pol, restricted)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wardrop.Simulate(restricted, wardrop.SimConfig{
		Policy: pol, UpdatePeriod: T, Horizon: 1500 * T, Integrator: wardrop.Uniformization,
	}, restricted.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !restricted.AtWardropEquilibrium(res.Final, 0.05) {
		t.Errorf("restricted game did not reach its equilibrium: %v", res.Final)
	}
}

// A JSON-specified network runs through solver and dynamics end to end.
func TestSpecToSolverToDynamics(t *testing.T) {
	doc := `{
	  "nodes": ["s", "m", "t"],
	  "edges": [
	    {"from": "s", "to": "m", "latency": {"kind": "linear", "slope": 1}},
	    {"from": "m", "to": "t", "latency": {"kind": "constant", "c": 0.2}},
	    {"from": "s", "to": "t", "latency": {"kind": "polynomial", "coeffs": [0.3, 0, 1]}}
	  ],
	  "commodities": [{"source": "s", "sink": "t", "demand": 1}]
	}`
	inst, err := wardrop.ParseInstance(stringsReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	eq, err := wardrop.SolveEquilibrium(inst, wardrop.SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	T, err := wardrop.SafeUpdatePeriodFor(pol, inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wardrop.Simulate(inst, wardrop.SimConfig{
		Policy: pol, UpdatePeriod: T, Horizon: 3000 * T, Integrator: wardrop.Uniformization,
	}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if gap := res.FinalPotential - eq.Potential; gap > 1e-3 {
		t.Errorf("dynamics vs solver potential gap = %g", gap)
	}
}
