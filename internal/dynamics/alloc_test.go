package dynamics

// Steady-state allocation test for the Hedge baseline: with a Workspace
// supplied, its per-phase loop must not allocate — every run-long buffer
// comes from the workspace and the compiled kernel, leaving only a constant
// per-run setup cost. The test measures the marginal allocations of extra
// phases (long run minus short run), which isolates the loop from the setup.
// The engines' loops are pinned by internal/engine's
// TestSteadyStateAllocationFree.

import (
	"context"
	"testing"

	"wardrop/internal/flow"
)

// marginalAllocs returns the allocation difference between a long and a
// short run of the same closure family — ~0 when the per-phase loop is
// allocation-free.
func marginalAllocs(run func(phases int)) float64 {
	short := testing.AllocsPerRun(5, func() { run(10) })
	long := testing.AllocsPerRun(5, func() { run(110) })
	return long - short
}

func TestRunHedgeSteadyStateAllocationFree(t *testing.T) {
	inst := mustBraess(t)
	f0 := inst.UniformFlow()
	ws := flow.NewWorkspace()
	cfg := HedgeConfig{Eta: 0.5, UpdatePeriod: 0.25, RunShape: RunShape{Workspace: ws}}
	run := func(phases int) {
		cfg.Horizon = float64(phases) * cfg.UpdatePeriod
		if _, err := RunHedge(context.Background(), inst, cfg, f0); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	if extra := marginalAllocs(run); extra > 0.5 {
		t.Fatalf("hedge: %g allocations per 100 extra phases, want 0", extra)
	}
}
