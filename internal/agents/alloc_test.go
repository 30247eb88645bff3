package agents

// Steady-state allocation test: with a Workspace supplied and a single
// worker (the sweep engine's per-task shape), the agent engine's phase loop
// — empirical-flow refresh, incremental board evaluation, sampling-table
// fill, shard simulation — must not allocate. Measured as the marginal
// allocations of extra phases, which isolates the loop from per-run setup.

import (
	"context"
	"testing"
	"wardrop/internal/dynamics"

	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

func TestRunSteadyStateAllocationFree(t *testing.T) {
	inst, err := topo.Braess()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	ws := flow.NewWorkspace()
	run := func(phases int) {
		sim, err := New(inst, Config{
			N:            500,
			Policy:       pol,
			UpdatePeriod: 0.25,
			Horizon:      float64(phases) * 0.25,
			Seed:         7,
			Workers:      1,
			RunShape:     dynamics.RunShape{Workspace: ws},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	run(1) // warm the workspace before measuring
	short := testing.AllocsPerRun(5, func() { run(10) })
	long := testing.AllocsPerRun(5, func() { run(110) })
	// Setup (Sim construction, RNGs, evaluator, final clone) is a constant;
	// the 100 extra phases must contribute nothing.
	if extra := long - short; extra > 0.5 {
		t.Fatalf("agents: %g allocations per 100 extra phases, want 0", extra)
	}
}
