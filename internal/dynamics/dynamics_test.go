package dynamics

import (
	"context"
	"errors"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustPigou(t testing.TB) *flow.Instance {
	t.Helper()
	inst, err := topo.Pigou()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func mustBraess(t testing.TB) *flow.Instance {
	t.Helper()
	inst, err := topo.Braess()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func mustReplicator(t testing.TB, lmax float64) policy.Policy {
	t.Helper()
	p, err := policy.Replicator(lmax)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustUniformLinear(t testing.TB, lmax float64) policy.Policy {
	t.Helper()
	p, err := policy.UniformLinear(lmax)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	f0 := inst.UniformFlow()

	if _, err := Run(context.Background(), inst, Config{Policy: pol, UpdatePeriod: 0.25}, f0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("missing horizon error = %v", err)
	}
	if _, err := Run(context.Background(), inst, Config{Policy: pol, Horizon: 1}, f0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("missing period error = %v", err)
	}
	if _, err := Run(context.Background(), inst, Config{UpdatePeriod: 1, Horizon: 1}, f0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("missing policy error = %v", err)
	}
	if _, err := Run(context.Background(), inst, Config{Policy: pol, UpdatePeriod: 1, Horizon: 1, Integrator: Integrator(9)}, f0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad integrator error = %v", err)
	}
	bad := flow.Vector{0.2, 0.2}
	if _, err := Run(context.Background(), inst, Config{Policy: pol, UpdatePeriod: 1, Horizon: 1}, bad); !errors.Is(err, ErrInfeasibleStart) {
		t.Errorf("infeasible start error = %v", err)
	}
	if _, err := RunFresh(context.Background(), inst, Config{Policy: pol, Horizon: 1, Integrator: Uniformization}, f0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("fresh uniformization error = %v", err)
	}
	if _, err := RunFresh(context.Background(), inst, Config{Policy: pol, Horizon: 1}, bad); !errors.Is(err, ErrInfeasibleStart) {
		t.Errorf("fresh infeasible error = %v", err)
	}
}

func TestIntegratorString(t *testing.T) {
	for _, i := range []Integrator{Euler, RK4, Uniformization, Integrator(9)} {
		if i.String() == "" {
			t.Errorf("empty name for %d", int(i))
		}
	}
}

// Theorem 2 (fresh information): the replicator dynamics on Pigou converges
// to the Wardrop equilibrium (1,0) with monotonically decreasing potential.
func TestFreshReplicatorConvergesOnPigou(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	prevPhi := math.Inf(1)
	monotone := true
	cfg := Config{
		Policy:  pol,
		Horizon: 120,
		Step:    1.0 / 64,
		RunShape: RunShape{
			Observer: ObserverFunc(func(info PhaseInfo) bool {
				if info.Potential > prevPhi+1e-9 {
					monotone = false
				}
				prevPhi = info.Potential
				return false
			}),
		},
	}
	res, err := RunFresh(context.Background(), inst, cfg, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !monotone {
		t.Error("potential increased under fresh information")
	}
	// The replicator's boundary approach is O(1/t) (rate ∝ f2·(1−f1)), so
	// the tolerance reflects the horizon.
	if !approx(res.Final[0], 1, 2e-2) {
		t.Errorf("final flow = %v, want (1,0)", res.Final)
	}
	if !approx(res.FinalPotential, 0.5, 1e-3) {
		t.Errorf("final potential = %g, want 0.5", res.FinalPotential)
	}
}

// Corollary 5: at the safe update period the replicator converges under
// stale information as well.
func TestStaleReplicatorConvergesAtSafeT(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	safeT, err := policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(safeT, 0.25, 1e-12) {
		t.Fatalf("safe T = %g, want 0.25 for Pigou", safeT)
	}
	res, err := Run(context.Background(), inst, Config{Policy: pol, UpdatePeriod: safeT, Horizon: 300}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Final[0], 1, 5e-3) {
		t.Errorf("final flow = %v, want (1,0)", res.Final)
	}
	if !inst.AtWardropEquilibrium(res.Final, 1e-2) {
		t.Error("did not reach approximate Wardrop equilibrium")
	}
}

// §3.2: best response on the two-link kink instance oscillates with period
// 2T from the paper's initial condition and never converges.
func TestBestResponseOscillatesOnKink(t *testing.T) {
	beta, period := 4.0, 0.5
	inst, err := topo.TwoLinkKink(beta)
	if err != nil {
		t.Fatal(err)
	}
	f1Start, amplitude, _ := TwoLinkOscillation(beta, period, 0)
	f0 := flow.Vector{f1Start, 1 - f1Start}
	var flows []float64
	var maxLats []float64
	cfg := BestResponseConfig{
		UpdatePeriod: period,
		Horizon:      20 * period,
		RunShape: RunShape{
			Observer: ObserverFunc(func(info PhaseInfo) bool {
				flows = append(flows, info.Flow[0])
				m := math.Max(info.PathLatencies[0], info.PathLatencies[1])
				maxLats = append(maxLats, m)
				return false
			}),
		},
	}
	res, err := RunBestResponse(context.Background(), inst, cfg, f0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != 20 {
		t.Fatalf("phases = %d", res.Phases)
	}
	// Period-2 orbit: every even phase returns to f1Start.
	for i := 0; i < len(flows); i += 2 {
		if !approx(flows[i], f1Start, 1e-9) {
			t.Errorf("phase %d: f1 = %.12f, want %.12f", i, flows[i], f1Start)
		}
	}
	// Odd phases sit at the mirrored point.
	for i := 1; i < len(flows); i += 2 {
		if !approx(flows[i], 1-f1Start, 1e-9) {
			t.Errorf("phase %d: f1 = %.12f, want %.12f", i, flows[i], 1-f1Start)
		}
	}
	// The sustained deviation matches the closed-form amplitude every round.
	for i, m := range maxLats {
		if !approx(m, amplitude, 1e-9) {
			t.Errorf("phase %d: max latency %g, want %g", i, m, amplitude)
		}
	}
}

func TestTwoLinkOscillationClosedForm(t *testing.T) {
	beta, T := 2.0, 1.0
	f1, amp, maxT := TwoLinkOscillation(beta, T, 0.1)
	e := math.Exp(-1.0)
	if !approx(f1, 1/(e+1), 1e-15) {
		t.Errorf("f1 = %g", f1)
	}
	if !approx(amp, beta*(1-e)/(2*e+2), 1e-15) {
		t.Errorf("amp = %g", amp)
	}
	want := math.Log((1 + 0.1) / (1 - 0.1))
	if !approx(maxT, want, 1e-15) {
		t.Errorf("maxT = %g, want %g", maxT, want)
	}
	if _, _, mt := TwoLinkOscillation(1, 1, 10); !math.IsInf(mt, 1) {
		t.Error("eps >= beta/2 should give infinite max period")
	}
}

// The §3.2 bound: running best response with T at the closed-form threshold
// keeps the oscillation amplitude at (approximately) eps.
func TestBestResponseAmplitudeAtThreshold(t *testing.T) {
	beta, eps := 4.0, 0.3
	_, _, maxT := TwoLinkOscillation(beta, 0, eps)
	_, amp, _ := TwoLinkOscillation(beta, maxT, 0)
	if !approx(amp, eps, 1e-9) {
		t.Errorf("amplitude at threshold = %g, want %g", amp, eps)
	}
}

// Best response under stale information fails to converge even at the
// α-smooth policies' safe period, while the smooth replicator converges —
// the paper's headline contrast.
func TestBestResponseVsReplicatorContrast(t *testing.T) {
	beta := 8.0
	inst, err := topo.TwoLinkKink(beta)
	if err != nil {
		t.Fatal(err)
	}
	pol := mustReplicator(t, inst.LMax())
	safeT, err := policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
	if err != nil {
		t.Fatal(err)
	}
	f1Start, _, _ := TwoLinkOscillation(beta, safeT, 0)
	f0 := flow.Vector{f1Start, 1 - f1Start}

	brRes, err := RunBestResponse(context.Background(), inst, BestResponseConfig{UpdatePeriod: safeT, Horizon: 400 * safeT}, f0)
	if err != nil {
		t.Fatal(err)
	}
	repRes, err := Run(context.Background(), inst, Config{Policy: pol, UpdatePeriod: safeT, Horizon: 400 * safeT}, f0.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Equilibrium: even split, both latencies zero, potential 0. The
	// best-response orbit keeps the closed-form flow deviation forever.
	wantDev := f1Start - 0.5
	if brDev := math.Abs(brRes.Final[0] - 0.5); brDev < 0.8*wantDev {
		t.Errorf("best response should still oscillate, |f1-1/2| = %g, want ≈ %g", brDev, wantDev)
	}
	if repDev := math.Abs(repRes.Final[0] - 0.5); repDev > 0.01 {
		t.Errorf("replicator should converge, |f1-1/2| = %g", repDev)
	}
}

// Theorem 6 machinery: the uniform+linear policy's unsatisfied-phase counter
// is finite and the run reaches a (δ,ε)-equilibrium that persists.
func TestUniformLinearRoundAccounting(t *testing.T) {
	inst := mustPigou(t)
	pol := mustUniformLinear(t, inst.LMax())
	safeT, err := policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Policy:       pol,
		UpdatePeriod: safeT,
		Horizon:      4000 * safeT,
		RunShape:     RunShape{Delta: 0.05, Eps: 0.05, StopAfterSatisfiedStreak: 50},
	}
	res, err := Run(context.Background(), inst, cfg, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("run should stop via satisfied streak")
	}
	if res.UnsatisfiedPhases <= 0 {
		t.Error("starting from uniform flow some phases must be unsatisfied")
	}
	if res.UnsatisfiedPhases > 3000 {
		t.Errorf("unsatisfied phases = %d, suspiciously many", res.UnsatisfiedPhases)
	}
}

// All three integrators agree on the frozen-board phase dynamics.
func TestIntegratorsAgree(t *testing.T) {
	inst := mustBraess(t)
	pol := mustReplicator(t, inst.LMax())
	f0 := flow.Vector{0.5, 0.3, 0.2}
	finals := map[Integrator]flow.Vector{}
	for _, integ := range []Integrator{Euler, RK4, Uniformization} {
		cfg := Config{
			Policy: pol, UpdatePeriod: 0.1, Horizon: 5,
			Integrator: integ, Step: 0.001,
		}
		res, err := Run(context.Background(), inst, cfg, f0.Clone())
		if err != nil {
			t.Fatalf("%v: %v", integ, err)
		}
		finals[integ] = res.Final
	}
	if d := finals[RK4].MaxAbsDiff(finals[Uniformization]); d > 1e-8 {
		t.Errorf("RK4 vs uniformization differ by %g", d)
	}
	if d := finals[Euler].MaxAbsDiff(finals[Uniformization]); d > 1e-4 {
		t.Errorf("Euler vs uniformization differ by %g", d)
	}
}

func TestTrajectoryRecording(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	cfg := Config{Policy: pol, UpdatePeriod: 0.25, Horizon: 10, RunShape: RunShape{RecordEvery: 2}}
	res, err := Run(context.Background(), inst, cfg, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != 20 { // 40 phases / 2
		t.Errorf("trajectory samples = %d, want 20", len(res.Trajectory))
	}
	for i := 1; i < len(res.Trajectory); i++ {
		if res.Trajectory[i].Time <= res.Trajectory[i-1].Time {
			t.Error("trajectory times not increasing")
		}
		if res.Trajectory[i].Potential > res.Trajectory[i-1].Potential+1e-9 {
			t.Error("potential increased at safe T")
		}
	}
}

func TestHookStopsRun(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	cfg := Config{
		Policy: pol, UpdatePeriod: 0.25, Horizon: 100,
		RunShape: RunShape{Observer: ObserverFunc(func(info PhaseInfo) bool { return info.Index >= 5 })},
	}
	res, err := Run(context.Background(), inst, cfg, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Phases != 5 {
		t.Errorf("stopped=%v phases=%d, want stop at 5", res.Stopped, res.Phases)
	}
}

// Flow conservation: feasibility is preserved along the whole run for every
// integrator and policy combination.
func TestFeasibilityPreserved(t *testing.T) {
	inst := mustBraess(t)
	for _, mk := range []func(testing.TB, float64) policy.Policy{mustReplicator, mustUniformLinear} {
		pol := mk(t, inst.LMax())
		for _, integ := range []Integrator{Euler, RK4, Uniformization} {
			cfg := Config{
				Policy: pol, UpdatePeriod: 0.05, Horizon: 10, Integrator: integ,
				RunShape: RunShape{
					Observer: ObserverFunc(func(info PhaseInfo) bool {
						if err := inst.Feasible(info.Flow, 1e-6); err != nil {
							t.Errorf("%s/%v at t=%g: %v", pol.Name(), integ, info.Time, err)
							return true
						}
						return false
					}),
				},
			}
			if _, err := Run(context.Background(), inst, cfg, inst.UniformFlow()); err != nil {
				t.Fatalf("%s/%v: %v", pol.Name(), integ, err)
			}
		}
	}
}

// Boltzmann sampling with a smooth migrator fits the framework and converges
// at small c under stale information.
func TestBoltzmannSmoothPolicyRuns(t *testing.T) {
	inst := mustPigou(t)
	lin, err := policy.NewLinear(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.Policy{Sampler: policy.Boltzmann{C: 1}, Migrator: lin}
	res, err := Run(context.Background(), inst, Config{Policy: pol, UpdatePeriod: 0.25, Horizon: 200}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Final[0], 1, 0.02) {
		t.Errorf("final flow = %v, want near (1,0)", res.Final)
	}
}

func TestRunFreshRecordsAndStops(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	cfg := Config{
		Policy: pol, Horizon: 50, Step: 0.1,
		RunShape: RunShape{Delta: 0.05, Eps: 0.05, StopAfterSatisfiedStreak: 20, RecordEvery: 10},
	}
	res, err := RunFresh(context.Background(), inst, cfg, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) == 0 {
		t.Error("no trajectory recorded")
	}
	if !res.Stopped {
		t.Error("fresh run should reach the satisfied streak")
	}
	if res.UnsatisfiedPhases == 0 {
		t.Error("early steps should be unsatisfied")
	}
}

func TestRunFreshEulerMatchesRK4(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	r1, err := RunFresh(context.Background(), inst, Config{Policy: pol, Horizon: 10, Step: 1e-3, Integrator: Euler}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFresh(context.Background(), inst, Config{Policy: pol, Horizon: 10, Step: 1e-2, Integrator: RK4}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if d := r1.Final.MaxAbsDiff(r2.Final); d > 1e-3 {
		t.Errorf("Euler vs RK4 fresh runs differ by %g", d)
	}
}

// Weak accounting uses the commodity-average reference (Definition 4).
func TestWeakAccounting(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	strictCfg := Config{Policy: pol, UpdatePeriod: 0.25, Horizon: 50, RunShape: RunShape{Delta: 0.1, Eps: 0.01}}
	weakCfg := strictCfg
	weakCfg.Weak = true
	rs, err := Run(context.Background(), inst, strictCfg, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Run(context.Background(), inst, weakCfg, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if rw.UnsatisfiedPhases > rs.UnsatisfiedPhases {
		t.Errorf("weak unsatisfied (%d) cannot exceed strict (%d)",
			rw.UnsatisfiedPhases, rs.UnsatisfiedPhases)
	}
}

// Partial final phase: horizon not a multiple of T still lands exactly on
// the horizon.
func TestPartialFinalPhase(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	res, err := Run(context.Background(), inst, Config{Policy: pol, UpdatePeriod: 0.3, Horizon: 1.0}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Elapsed, 1.0, 1e-9) {
		t.Errorf("elapsed = %g, want 1.0", res.Elapsed)
	}
	if res.Phases != 4 { // 0.3+0.3+0.3+0.1
		t.Errorf("phases = %d, want 4", res.Phases)
	}
}
