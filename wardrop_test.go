package wardrop_test

import (
	"context"
	"math"
	"testing"

	"wardrop"
)

// TestQuickstartFlow exercises the documented end-to-end path of the public
// API: topology → policy → safe period → simulate → equilibrium check.
func TestQuickstartFlow(t *testing.T) {
	inst, err := wardrop.Pigou()
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
	res, err := wardrop.Run(context.Background(), wardrop.Scenario{
		Instance: inst, Policy: pol, UpdatePeriod: T, Horizon: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.AtWardropEquilibrium(res.Final, 0.02) {
		t.Errorf("quickstart did not converge: %v", res.Final)
	}
}

func TestBuildCustomInstanceThroughFacade(t *testing.T) {
	g := wardrop.NewGraph()
	s := g.MustAddNode("s")
	d := g.MustAddNode("t")
	g.MustAddEdge(s, d)
	g.MustAddEdge(s, d)
	bpr, err := wardrop.NewBPR(1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wardrop.NewInstance(g,
		[]wardrop.LatencyFunc{wardrop.Linear{Slope: 1}, bpr},
		[]wardrop.Commodity{{Source: s, Sink: d, Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumPaths() != 2 {
		t.Errorf("paths = %d", inst.NumPaths())
	}
	sol, err := wardrop.SolveEquilibrium(inst, wardrop.SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.AtWardropEquilibrium(sol.Flow, 1e-5) {
		t.Error("solver result is not an equilibrium")
	}
}

func TestFacadeBestResponseAndClosedForm(t *testing.T) {
	beta, T := 4.0, 0.5
	inst, err := wardrop.TwoLinkKink(beta)
	if err != nil {
		t.Fatal(err)
	}
	f1, amp, maxT := wardrop.TwoLinkOscillation(beta, T, 0.1)
	if f1 <= 0.5 || amp <= 0 || maxT <= 0 {
		t.Fatalf("closed form degenerate: %g %g %g", f1, amp, maxT)
	}
	res, err := wardrop.Run(context.Background(), wardrop.Scenario{
		Engine: wardrop.BestResponseEngine{}, Instance: inst,
		UpdatePeriod: T, Horizon: 10 * T, InitialFlow: wardrop.Flow{f1, 1 - f1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Final[0]-f1) > 1e-9 {
		t.Errorf("period-2 orbit broken: %v", res.Final)
	}
}

func TestFacadeAgentSim(t *testing.T) {
	inst, err := wardrop.Braess()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	res, err := wardrop.Run(context.Background(), wardrop.Scenario{
		Engine:   wardrop.AgentsEngine{N: 300, Seed: 1, Workers: 2},
		Instance: inst, Policy: pol, UpdatePeriod: 0.25, Horizon: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Feasible(res.Final, 1e-9); err != nil {
		t.Errorf("agent final infeasible: %v", err)
	}
}

func TestFacadeSmoothnessHelpers(t *testing.T) {
	lin, err := wardrop.NewLinearMigrator(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := wardrop.EstimateAlpha(lin, 2, 64); math.Abs(got-0.5) > 1e-6 {
		t.Errorf("EstimateAlpha = %g", got)
	}
	if !wardrop.IsAlphaSmooth(lin, 0.5, 2, 32) {
		t.Error("linear should be 0.5-smooth for lmax=2")
	}
	if wardrop.IsAlphaSmooth(wardrop.BetterResponseMigrator{}, 100, 2, 32) {
		t.Error("better response should fail smoothness")
	}
	if T := wardrop.SafeUpdatePeriod(0.5, 2, 1); math.Abs(T-0.25) > 1e-12 {
		t.Errorf("SafeUpdatePeriod = %g", T)
	}
}

func TestFacadePoA(t *testing.T) {
	inst, err := wardrop.Pigou()
	if err != nil {
		t.Fatal(err)
	}
	poa, _, _, err := wardrop.PriceOfAnarchy(inst, wardrop.SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(poa-4.0/3) > 1e-3 {
		t.Errorf("PoA = %g, want 4/3", poa)
	}
}

func TestFacadeTopologies(t *testing.T) {
	for name, mk := range map[string]func() (*wardrop.Instance, error){
		"pigou":   wardrop.Pigou,
		"braess":  wardrop.Braess,
		"kink":    func() (*wardrop.Instance, error) { return wardrop.TwoLinkKink(2) },
		"links":   func() (*wardrop.Instance, error) { return wardrop.LinearParallelLinks(4) },
		"grid":    func() (*wardrop.Instance, error) { return wardrop.GridNetwork(3) },
		"layered": func() (*wardrop.Instance, error) { return wardrop.LayeredRandom(2, 2, 5) },
		"twocomm": wardrop.TwoCommodityOverlap,
		"custom": func() (*wardrop.Instance, error) {
			return wardrop.ParallelLinks([]wardrop.LatencyFunc{
				wardrop.Kink(2), wardrop.Constant{C: 1},
			})
		},
	} {
		inst, err := mk()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := inst.Feasible(inst.UniformFlow(), 1e-9); err != nil {
			t.Errorf("%s: uniform flow infeasible: %v", name, err)
		}
	}
}
