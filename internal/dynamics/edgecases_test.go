package dynamics

import (
	"context"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/latency"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// Constant latencies: β = 0, so every update period is safe (+Inf) and the
// dynamics must be stationary up to symmetric mixing — the potential cannot
// move at all because all latencies are equal.
func TestConstantLatenciesAreDegenerate(t *testing.T) {
	inst, err := topo.ParallelLinks([]latency.Function{
		latency.Constant{C: 1}, latency.Constant{C: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pol := mustReplicator(t, inst.LMax())
	safeT, err := policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(safeT, 1) {
		t.Fatalf("safe period = %g, want +Inf for beta=0", safeT)
	}
	// Any finite T works; nothing migrates because no path improves on any
	// other.
	res, err := Run(context.Background(), inst, Config{Policy: pol, UpdatePeriod: 5, Horizon: 50}, flow.Vector{0.7, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Final.MaxAbsDiff(flow.Vector{0.7, 0.3}); d > 1e-12 {
		t.Errorf("flow moved %g despite equal latencies", d)
	}
}

// Uniformization must stay accurate for phases much longer than the mean
// migration time (large λτ exercises the long Poisson series).
func TestUniformizationLongPhase(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	long, err := Run(context.Background(), inst, Config{
		Policy: pol, UpdatePeriod: 50, Horizon: 50, Integrator: Uniformization,
	}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), inst, Config{
		Policy: pol, UpdatePeriod: 50, Horizon: 50, Integrator: RK4, Step: 0.01,
	}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if d := long.Final.MaxAbsDiff(ref.Final); d > 1e-6 {
		t.Errorf("long-phase uniformization differs from fine RK4 by %g", d)
	}
}

// The Quadratic migrator (a non-linear member of the smooth class) converges
// at its safe period.
func TestQuadraticMigratorConverges(t *testing.T) {
	inst := mustPigou(t)
	q := policy.Quadratic{AlphaParam: 1 / inst.LMax(), LMax: inst.LMax()}
	pol := policy.Policy{Sampler: policy.Proportional{}, Migrator: q}
	safeT := policy.SafeUpdatePeriod(q.Alpha(), inst.Beta(), inst.MaxPathLen())
	res, err := Run(context.Background(), inst, Config{Policy: pol, UpdatePeriod: safeT, Horizon: 3000 * safeT, Integrator: Uniformization},
		inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !inst.AtWardropEquilibrium(res.Final, 0.05) {
		t.Errorf("quadratic policy did not converge: %v", res.Final)
	}
}

// The RelativeGain migrator converges at its own safe period and beats the
// plain linear rule on instances whose latencies sit far above the floor.
func TestRelativeGainConvergesAndIsFaster(t *testing.T) {
	inst, err := topo.ParallelLinks([]latency.Function{
		latency.Linear{Slope: 1, Offset: 2}, // latencies in [2,3]
		latency.Linear{Slope: 1, Offset: 2.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := policy.NewRelativeGain(1, 2) // floor matches the latency scale
	if err != nil {
		t.Fatal(err)
	}
	relPol := policy.Policy{Sampler: policy.Proportional{}, Migrator: rel}
	relT := policy.SafeUpdatePeriod(rel.Alpha(), inst.Beta(), inst.MaxPathLen())

	linPol := mustReplicator(t, inst.LMax())
	linT, err := policy.SafeUpdatePeriodFor(linPol, inst.Beta(), inst.MaxPathLen())
	if err != nil {
		t.Fatal(err)
	}
	horizon := 60.0
	f0 := flow.Vector{0.9, 0.1}
	relRes, err := Run(context.Background(), inst, Config{Policy: relPol, UpdatePeriod: relT, Horizon: horizon, Integrator: Uniformization}, f0)
	if err != nil {
		t.Fatal(err)
	}
	linRes, err := Run(context.Background(), inst, Config{Policy: linPol, UpdatePeriod: linT, Horizon: horizon, Integrator: Uniformization}, f0.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !inst.AtWardropEquilibrium(relRes.Final, 0.02) {
		t.Errorf("relative-gain did not converge: %v", relRes.Final)
	}
	// Both reach equilibrium; the relative rule should be at least as close.
	star := inst.Potential(flow.Vector{0.6, 0.4}) // equalising split: 2+x = 2.2+(1-x) -> x=0.6
	if gRel, gLin := relRes.FinalPotential-star, linRes.FinalPotential-star; gRel > gLin+1e-9 {
		t.Errorf("relative-gain gap %g worse than linear %g", gRel, gLin)
	}
}

// Zero-demand paths at the simplex boundary: the replicator cannot enter
// paths with zero flow AND zero sampling probability; uniform sampling can.
func TestBoundaryBehaviourUniformVsProportional(t *testing.T) {
	inst := mustPigou(t)
	f0 := flow.Vector{0, 1} // everything on the constant link
	uni := mustUniformLinear(t, inst.LMax())
	uniRes, err := Run(context.Background(), inst, Config{Policy: uni, UpdatePeriod: 0.25, Horizon: 100}, f0)
	if err != nil {
		t.Fatal(err)
	}
	if uniRes.Final[0] < 0.9 {
		t.Errorf("uniform sampling should escape the boundary: %v", uniRes.Final)
	}
	rep := mustReplicator(t, inst.LMax())
	repRes, err := Run(context.Background(), inst, Config{Policy: rep, UpdatePeriod: 0.25, Horizon: 100}, f0.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if repRes.Final[0] > 1e-9 {
		t.Errorf("replicator entered a zero-flow path from a vertex: %v", repRes.Final)
	}
}

// Best response on an instance whose equilibrium is a strict single path:
// stale best response *can* converge when the equilibrium is an attractor of
// the phase map (Pigou: the x-link dominates until x=1, ℓ1(1)=ℓ2=1).
func TestBestResponseConvergesOnPigou(t *testing.T) {
	inst := mustPigou(t)
	res, err := RunBestResponse(context.Background(), inst, BestResponseConfig{UpdatePeriod: 0.5, Horizon: 40}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if res.Final[0] < 0.99 {
		t.Errorf("best response should converge on Pigou: %v", res.Final)
	}
}

// Hook receives strictly increasing phase times and consistent potentials.
func TestPhaseInfoConsistency(t *testing.T) {
	inst := mustBraess(t)
	pol := mustReplicator(t, inst.LMax())
	prevTime := -1.0
	cfg := Config{
		Policy: pol, UpdatePeriod: 0.2, Horizon: 10,
		RunShape: RunShape{
			Observer: ObserverFunc(func(info PhaseInfo) bool {
				if info.Time <= prevTime {
					t.Errorf("phase %d time %g <= previous %g", info.Index, info.Time, prevTime)
				}
				prevTime = info.Time
				if got := inst.Potential(info.Flow); math.Abs(got-info.Potential) > 1e-9 {
					t.Errorf("phase %d: potential mismatch %g vs %g", info.Index, got, info.Potential)
				}
				return false
			}),
		},
	}
	if _, err := Run(context.Background(), inst, cfg, inst.UniformFlow()); err != nil {
		t.Fatal(err)
	}
}
