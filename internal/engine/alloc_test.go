package engine

import (
	"context"
	"math"
	"runtime"
	"testing"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/topo"
)

// TestSteadyStateAllocationFree pins the engines' allocation contract: on a
// warm workspace a phase allocates nothing — every run-long buffer comes from
// the workspace and the compiled kernel, leaving only a constant per-run
// setup cost. Each case measures the marginal allocations of 100 extra
// phases (a long run minus a short run), which isolates the phase loop from
// the setup. The count runs at the process's GOMAXPROCS (see
// mallocsPerRun), so a fan-out that sizes itself from GOMAXPROCS counts.
func TestSteadyStateAllocationFree(t *testing.T) {
	braess, err := topo.Braess()
	if err != nil {
		t.Fatal(err)
	}
	layered, err := topo.LayeredRandom(3, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	grid6, err := topo.Grid(6)
	if err != nil {
		t.Fatal(err)
	}
	const period = 0.25
	cases := []struct {
		name string
		inst *flow.Instance
		eng  Engine
		// max is the allowed allocations per 100 extra phases.
		max float64
	}{
		{"fluid-euler", braess, Fluid{Integrator: dynamics.Euler}, 0},
		{"fluid-rk4", braess, Fluid{Integrator: dynamics.RK4}, 0},
		{"fluid-uniformization", braess, Fluid{Integrator: dynamics.Uniformization}, 0},
		{"fluid-layered-random", layered, Fluid{Integrator: dynamics.Uniformization}, 0},
		// sim-dense's fluid instance: 252 paths in one commodity.
		{"fluid-grid6", grid6, Fluid{Integrator: dynamics.Euler}, 0},
		{"fresh-euler", braess, Fluid{Fresh: true, Integrator: dynamics.Euler, Step: period}, 0},
		{"fresh-rk4", braess, Fluid{Fresh: true, Integrator: dynamics.RK4, Step: period}, 0},
		{"bestresponse", braess, BestResponse{}, 0},
		{"agents-w1", braess, Agents{N: 500, Seed: 7, Workers: 1}, 0},
		// Two workers fan each phase out to goroutines, and the fan-out
		// allocates; the bound pins it at its measured 6 per phase.
		{"agents-w2", braess, Agents{N: 500, Seed: 7, Workers: 2}, 600},
		{"agents-event", braess, Agents{N: 500, Seed: 7, EventDriven: true}, 0},
		{"count", braess, Count{N: 1000000, Seed: 7}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := Scenario{Engine: c.eng, Instance: c.inst, Policy: mustReplicator(t, c.inst), UpdatePeriod: period}
			ws := flow.NewWorkspace()
			run := func(phases int) {
				sc.Horizon = float64(phases) * period
				if _, err := Run(context.Background(), sc, WithWorkspace(ws)); err != nil {
					t.Fatal(err)
				}
			}
			run(1) // warm the workspace before measuring
			short := mallocsPerRun(10, func() { run(10) })
			long := mallocsPerRun(10, func() { run(110) })
			extra := long - short
			t.Logf("%g allocations per 100 extra phases", extra)
			if extra > c.max+0.5 {
				t.Fatalf("%g allocations per 100 extra phases, want <= %g", extra, c.max)
			}
		})
	}
}

// mallocsPerRun is the number of heap allocations one call of f makes: the
// fewest, over runs calls after warm-up calls, that runtime.MemStats.Mallocs
// counts around a call. Unlike testing.AllocsPerRun it counts at the
// process's GOMAXPROCS; AllocsPerRun pins GOMAXPROCS to 1 while it counts,
// which hides whatever a run sizes from GOMAXPROCS (the agents engine's
// default worker count, for one). With several Ps the runtime's own pools add
// allocations to some calls and not others: a goroutine descriptor when the
// spawning P's free list is empty, until enough descriptors circulate
// between the Ps. That takes longer on a loaded machine, so f warms up
// three times and the fewest count is taken; an allocation the run itself
// makes recurs in every call. The count covers the whole process, so no
// test in this package runs in parallel with another.
func mallocsPerRun(runs int, f func()) float64 {
	for i := 0; i < 3; i++ {
		f()
	}
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return float64(fewest)
}
