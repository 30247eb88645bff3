package engine

import (
	"context"
	"errors"
	"testing"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// A period far beyond the safe one makes the replicator on Pigou blow up:
// the explicit integrators overflow or reach NaN, and uniformization's
// truncated series loses all demand. Each run must come back with its
// result and ErrDiverged, not a silent garbage result.
func TestRunReportsDivergence(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst)
	for _, tc := range []struct {
		name string
		eng  Fluid
		T    float64
	}{
		{"rk4/T=1e3", Fluid{Integrator: dynamics.RK4}, 1e3},
		{"euler/T=1e6", Fluid{Integrator: dynamics.Euler}, 1e6},
		{"rk4/T=1e6", Fluid{Integrator: dynamics.RK4}, 1e6},
		{"uniformization/T=1e4", Fluid{Integrator: dynamics.Uniformization}, 1e4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), Scenario{
				Engine: tc.eng, Instance: inst, Policy: pol,
				UpdatePeriod: tc.T, Horizon: 3 * tc.T,
			})
			if !errors.Is(err, ErrDiverged) {
				t.Fatalf("err = %v, want ErrDiverged", err)
			}
			if res == nil {
				t.Fatal("diverged run returned no result")
			}
			t.Logf("final %v, Φ %g: %v", res.Final, res.FinalPotential, err)
		})
	}
}

// Round-off in a large demand is not divergence: a commodity of 10⁷ or 10⁹
// on eight constant-latency links ends a few ulp off its demand, beyond an
// absolute 1e-9 but well within 1e-9 of the demand.
func TestLargeDemandIsNotDivergence(t *testing.T) {
	for _, demand := range []float64{1e7, 1e9} {
		g := graph.New()
		s, d := g.MustAddNode("s"), g.MustAddNode("t")
		var lats []latency.Function
		for i := 0; i < 8; i++ {
			g.MustAddEdge(s, d)
			lats = append(lats, latency.Constant{C: 1 + float64(i)/8})
		}
		inst, err := flow.NewInstance(g, lats, []flow.Commodity{{Source: s, Sink: d, Demand: demand}})
		if err != nil {
			t.Fatal(err)
		}
		pol := mustReplicator(t, inst)
		for _, eng := range []Engine{
			Fluid{Integrator: dynamics.Uniformization},
			Fluid{Integrator: dynamics.RK4},
			Fluid{Fresh: true},
			BestResponse{},
			Count{N: 1_000_003, Seed: 3},
			Agents{N: 10_007, Seed: 3},
		} {
			if _, err := Run(context.Background(), Scenario{
				Engine: eng, Instance: inst, Policy: pol, UpdatePeriod: 0.1, Horizon: 5,
			}); err != nil {
				t.Errorf("demand %g, %s: %v", demand, eng.Name(), err)
			}
		}
	}
}
