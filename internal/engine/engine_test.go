package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"wardrop/internal/agents"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/meanfield"
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

func mustReplicator(t testing.TB, inst *flow.Instance) policy.Policy {
	t.Helper()
	pol, err := policy.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Scenario{}); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("nil instance accepted: %v", err)
	}
	inst := mustPigou(t)
	// Engine-level validation still applies: no policy for the fluid engine.
	if _, err := Run(context.Background(), Scenario{Instance: inst, UpdatePeriod: 1, Horizon: 1}); !errors.Is(err, dynamics.ErrBadConfig) {
		t.Fatalf("policy-less fluid scenario accepted: %v", err)
	}
}

func TestDefaultEngineIsFluid(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst)
	sc := Scenario{Instance: inst, Policy: pol, UpdatePeriod: 0.25, Horizon: 2}
	got, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dynamics.Run(context.Background(), inst, dynamics.Config{
		Policy: pol, UpdatePeriod: 0.25, Horizon: 2,
	}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default engine result differs from dynamics.Run:\n got %+v\nwant %+v", got, want)
	}
}

func TestEngineNames(t *testing.T) {
	cases := []struct {
		eng  Engine
		want string
	}{
		{Fluid{}, "fluid"},
		{Fluid{Fresh: true}, "fresh"},
		{BestResponse{}, "bestresponse"},
		{Agents{N: 10}, "agents"},
	}
	for _, c := range cases {
		if got := c.eng.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestSpecBuildRoundTrip(t *testing.T) {
	cases := []struct {
		spec Spec
		want Engine
	}{
		{Spec{}, Fluid{}},
		{Spec{Kind: "fluid", Integrator: "uniformization"}, Fluid{Integrator: dynamics.Uniformization}},
		{Spec{Kind: "fresh", Integrator: "euler", Step: 0.5}, Fluid{Fresh: true, Integrator: dynamics.Euler, Step: 0.5}},
		{Spec{Kind: "bestresponse"}, BestResponse{}},
		{Spec{Kind: "agents", N: 7, Seed: 3, Workers: 2}, Agents{N: 7, Seed: 3, Workers: 2}},
	}
	for _, c := range cases {
		got, err := c.spec.Build()
		if err != nil {
			t.Fatalf("Build(%+v): %v", c.spec, err)
		}
		if got != c.want {
			t.Errorf("Build(%+v) = %+v, want %+v", c.spec, got, c.want)
		}
	}
	for _, bad := range []Spec{
		{Kind: "warp"},
		{Kind: "agents"},
		{Kind: "fluid", Integrator: "simplectic"},
	} {
		if _, err := bad.Build(); !errors.Is(err, ErrBadEngine) {
			t.Errorf("Build(%+v) err = %v, want ErrBadEngine", bad, err)
		}
	}
	if _, err := New("agents"); !errors.Is(err, ErrBadEngine) {
		t.Errorf("New(agents) err = %v, want ErrBadEngine", err)
	}
	if eng, err := New("bestresponse"); err != nil || eng != (BestResponse{}) {
		t.Errorf("New(bestresponse) = %v, %v", eng, err)
	}
}

func TestAllEnginesRunAndObserve(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst)
	for _, eng := range []Engine{
		Fluid{},
		Fluid{Fresh: true, Step: 1.0 / 32},
		BestResponse{},
		Agents{N: 50, Seed: 9, Workers: 1},
		Agents{N: 50, Seed: 9, EventDriven: true},
	} {
		phases := 0
		sc := Scenario{
			Engine: eng, Instance: inst, Policy: pol,
			UpdatePeriod: 0.25, Horizon: 2, RecordEvery: 1,
		}
		res, err := Run(context.Background(), sc, WithObserver(dynamics.ObserverFunc(func(dynamics.PhaseInfo) bool {
			phases++
			return false
		})))
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if phases == 0 {
			t.Errorf("%s: observer saw no phases", eng.Name())
		}
		if len(res.Trajectory) == 0 {
			t.Errorf("%s: no trajectory recorded", eng.Name())
		}
		if err := inst.Feasible(res.Final, 1e-6); err != nil {
			t.Errorf("%s: infeasible final flow: %v", eng.Name(), err)
		}
	}
}

func TestObserverStopsRun(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst)
	sc := Scenario{Instance: inst, Policy: pol, UpdatePeriod: 0.25, Horizon: 100}
	res, err := Run(context.Background(), sc, WithObserver(dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
		return info.Index >= 3
	})))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Phases != 3 {
		t.Fatalf("stopped=%v phases=%d, want stop after 3 phases", res.Stopped, res.Phases)
	}
}

func TestCancellationReturnsPartialResult(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst)
	for _, eng := range []Engine{Fluid{}, Agents{N: 40, Seed: 1, Workers: 1}} {
		ctx, cancel := context.WithCancel(context.Background())
		sc := Scenario{Engine: eng, Instance: inst, Policy: pol, UpdatePeriod: 0.25, Horizon: 1000}
		res, err := Run(ctx, sc, WithObserver(dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
			if info.Index == 4 {
				cancel()
			}
			return false
		})))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", eng.Name(), err)
		}
		if res == nil || res.Phases != 5 {
			t.Fatalf("%s: partial result %+v, want 5 completed phases", eng.Name(), res)
		}
		if err := inst.Feasible(res.Final, 1e-6); err != nil {
			t.Errorf("%s: infeasible partial final: %v", eng.Name(), err)
		}
		cancel()
	}
}

func TestWithObserverEmptyKeepsNil(t *testing.T) {
	var o Options
	WithObserver()(&o)
	if o.Observer != nil {
		t.Fatalf("empty WithObserver set Observer = %#v, want nil", o.Observer)
	}
	WithObserver(nil, nil)(&o)
	if o.Observer != nil {
		t.Fatalf("all-nil WithObserver set Observer = %#v, want nil", o.Observer)
	}
}

// TestNonFiniteRunShapeRejected pins the one shared time-grid check: every
// engine rejects a NaN or infinite period (the board period, or the fresh
// dynamics' step) and a NaN or infinite horizon with its package's
// bad-config error, and the fluid engines reject a NaN integrator step.
func TestNonFiniteRunShapeRejected(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst)
	nan, inf := math.NaN(), math.Inf(1)
	engines := []struct {
		eng Engine
		// withPeriod returns the engine with its phase length overridden
		// where the engine, not the scenario, holds it (nil: it is the
		// scenario's UpdatePeriod).
		withPeriod func(float64) Engine
		sentinel   error
	}{
		{Fluid{}, nil, dynamics.ErrBadConfig},
		{Fluid{Fresh: true}, func(p float64) Engine { return Fluid{Fresh: true, Step: p} }, dynamics.ErrBadConfig},
		{BestResponse{}, nil, dynamics.ErrBadConfig},
		{Agents{N: 100, Seed: 1, Workers: 1}, nil, agents.ErrBadConfig},
		{Agents{N: 100, Seed: 1, EventDriven: true}, nil, agents.ErrBadConfig},
		{Count{N: 1000, Seed: 1}, nil, meanfield.ErrBadConfig},
		{hedgeEngine{eta: 0.5}, nil, dynamics.ErrBadConfig},
	}
	type badCase struct {
		name            string
		eng             Engine
		period, horizon float64
		sentinel        error
	}
	var cases []badCase
	for _, e := range engines {
		name := e.eng.Name()
		if a, ok := e.eng.(Agents); ok && a.EventDriven {
			name = "agents-event"
		}
		for _, p := range []float64{nan, inf, -inf} {
			c := badCase{fmt.Sprintf("%s/period=%g", name, p), e.eng, p, 2, e.sentinel}
			if e.withPeriod != nil {
				c.eng, c.period = e.withPeriod(p), 0.25
			}
			cases = append(cases, c)
		}
		for _, h := range []float64{nan, inf} {
			cases = append(cases, badCase{fmt.Sprintf("%s/horizon=%g", name, h), e.eng, 0.25, h, e.sentinel})
		}
	}
	cases = append(cases,
		badCase{"fluid/step=NaN", Fluid{Step: nan}, 0.25, 2, dynamics.ErrBadConfig},
		badCase{"fresh/step=NaN", Fluid{Fresh: true, Step: nan}, 0.25, 2, dynamics.ErrBadConfig},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(context.Background(), Scenario{
				Engine: c.eng, Instance: inst, Policy: pol, UpdatePeriod: c.period, Horizon: c.horizon,
			})
			if !errors.Is(err, c.sentinel) {
				t.Fatalf("err = %v, want %v", err, c.sentinel)
			}
		})
	}
}
