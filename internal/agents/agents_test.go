package agents

import (
	"context"
	"errors"
	"math"
	"testing"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

func mustPigou(t testing.TB) *flow.Instance {
	t.Helper()
	inst, err := topo.Pigou()
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

func TestNewValidation(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	base := Config{N: 100, Policy: pol, UpdatePeriod: 0.25, Horizon: 1}
	cases := []struct {
		name string
		mut  func(Config) Config
	}{
		{"zero N", func(c Config) Config { c.N = 0; return c }},
		{"zero period", func(c Config) Config { c.UpdatePeriod = 0; return c }},
		{"zero horizon", func(c Config) Config { c.Horizon = 0; return c }},
		{"no policy", func(c Config) Config { c.Policy = policy.Policy{}; return c }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(inst, tc.mut(base)); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
	if _, err := New(inst, base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestEmpiricalFlowIsFeasible(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	s, err := New(inst, Config{N: 101, Policy: pol, UpdatePeriod: 0.25, Horizon: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Feasible(s.EmpiricalFlow(), 1e-9); err != nil {
		t.Errorf("initial empirical flow infeasible: %v", err)
	}
}

func TestAgentSplitAcrossCommodities(t *testing.T) {
	inst, err := topo.TwoCommodityOverlap() // demands 0.6 / 0.4
	if err != nil {
		t.Fatal(err)
	}
	pol := mustReplicator(t, inst.LMax())
	s, err := New(inst, Config{N: 10, Policy: pol, UpdatePeriod: 0.1, Horizon: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := s.EmpiricalFlow()
	if err := inst.Feasible(f, 1e-9); err != nil {
		t.Errorf("two-commodity empirical flow infeasible: %v", err)
	}
}

func TestRunConvergesOnPigou(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	s, err := New(inst, Config{
		N: 2000, Policy: pol, UpdatePeriod: 0.25, Horizon: 120, Seed: 42, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Final[0] < 0.95 {
		t.Errorf("final flow = %v, want most mass on the x-link", res.Final)
	}
	if err := inst.Feasible(res.Final, 1e-9); err != nil {
		t.Errorf("final flow infeasible: %v", err)
	}
}

func TestDeterminismForFixedSeedAndWorkers(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	run := func() flow.Vector {
		s, err := New(inst, Config{N: 500, Policy: pol, UpdatePeriod: 0.25, Horizon: 10, Seed: 7, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Final
	}
	a, b := run(), run()
	if d := a.MaxAbsDiff(b); d != 0 {
		t.Errorf("same seed+workers differ by %g", d)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	run := func(seed uint64) flow.Vector {
		s, err := New(inst, Config{N: 500, Policy: pol, UpdatePeriod: 0.25, Horizon: 5, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Final
	}
	if d := run(1).MaxAbsDiff(run(2)); d == 0 {
		t.Error("different seeds produced identical trajectories")
	}
}

// E10 core claim: the finite-N empirical trajectory approaches the fluid
// limit as N grows (sup-norm error at a fixed time shrinks).
func TestFluidLimitAgreementImprovesWithN(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	fluidRes, err := dynamics.Run(context.Background(), inst, dynamics.Config{
		Policy: pol, UpdatePeriod: 0.25, Horizon: 20,
	}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(n int) float64 {
		// Average over a few seeds to tame variance.
		sum := 0.0
		const seeds = 3
		for seed := uint64(1); seed <= seeds; seed++ {
			s, err := New(inst, Config{N: n, Policy: pol, UpdatePeriod: 0.25, Horizon: 20, Seed: seed, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Final.MaxAbsDiff(fluidRes.Final)
		}
		return sum / seeds
	}
	small, large := errAt(50), errAt(5000)
	if large >= small {
		t.Errorf("error did not shrink with N: N=50 err %g vs N=5000 err %g", small, large)
	}
}

func TestHookAndTrajectory(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	calls := 0
	s, err := New(inst, Config{
		N: 100, Policy: pol, UpdatePeriod: 0.5, Horizon: 100, Seed: 1,
		RunShape: dynamics.RunShape{
			RecordEvery: 1,
			Observer: dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
				calls++
				return info.Index >= 9
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Phases != 9 {
		t.Errorf("stopped=%v phases=%d, want stop at phase 9", res.Stopped, res.Phases)
	}
	if calls != 10 {
		t.Errorf("hook calls = %d, want 10", calls)
	}
	if len(res.Trajectory) != 10 {
		t.Errorf("trajectory = %d samples, want 10", len(res.Trajectory))
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := NewRNG(99)
	for _, mean := range []float64{0.3, 2.0, 50.0} {
		const n = 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(rng.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%g) sample mean = %g", mean, got)
		}
	}
	if NewRNG(1).Poisson(0) != 0 {
		t.Error("Poisson(0) != 0")
	}
	if NewRNG(1).Poisson(-1) != 0 {
		t.Error("Poisson(-1) != 0")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(5)
	for i := 0; i < 10000; i++ {
		u := rng.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %g", u)
		}
	}
}

func TestConservationUnderConcurrency(t *testing.T) {
	inst, err := topo.Braess()
	if err != nil {
		t.Fatal(err)
	}
	pol := mustReplicator(t, inst.LMax())
	s, err := New(inst, Config{
		N: 999, Policy: pol, UpdatePeriod: 0.1, Horizon: 20, Seed: 3, Workers: 8,
		RunShape: dynamics.RunShape{
			Observer: dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
				if err := inst.Feasible(info.Flow, 1e-9); err != nil {
					t.Errorf("phase %d: %v", info.Index, err)
					return true
				}
				return false
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRunContextCancellation covers the satellite contract: both finite-N
// engines honour ctx.Done() and return the partial result with ctx.Err() —
// including the event-driven engine when the whole run fits inside a single
// board phase (Horizon < UpdatePeriod), where there are no phase boundaries
// to check at.
func TestRunContextCancellation(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	runs := map[string]func(*Sim) (*dynamics.Result, error){
		"batched": func(s *Sim) (*dynamics.Result, error) {
			return s.RunContext(cancelled)
		},
		"event-driven": func(s *Sim) (*dynamics.Result, error) {
			return s.RunEventDrivenContext(cancelled)
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			// Horizon < UpdatePeriod: the run would complete without ever
			// crossing a phase boundary.
			sim, err := New(inst, Config{
				N: 50, Policy: pol, UpdatePeriod: 10, Horizon: 5, Seed: 3, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(sim)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("no partial result returned")
			}
			if ferr := inst.Feasible(res.Final, 1e-9); ferr != nil {
				t.Errorf("partial final flow infeasible: %v", ferr)
			}
		})
	}
}

// TestRunContextCancellationWithinGiantPhase pins the in-phase cancellation
// path of the batched engine: with Horizon <= UpdatePeriod the whole run is
// one phase, so the only chance to observe a cancel raised at the phase
// start is the shards' between-agent check.
func TestRunContextCancellationWithinGiantPhase(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim, err := New(inst, Config{
		// Enough agents that the shard passes several ctx checkpoints.
		N: 4 * ctxCheckEvents, Policy: pol, UpdatePeriod: 10, Horizon: 10,
		Seed: 5, Workers: 1,
		RunShape: dynamics.RunShape{
			Observer: dynamics.ObserverFunc(func(dynamics.PhaseInfo) bool {
				cancel() // fires at the phase-0 start, before the shards run
				return false
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (single-phase run uninterruptible)", err)
	}
	if res == nil || res.Phases != 0 {
		t.Fatalf("partial result %+v, want the abandoned phase not counted", res)
	}
}
