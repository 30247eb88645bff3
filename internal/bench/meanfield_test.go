package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/meanfield"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

func TestPhaseCostRatioPairing(t *testing.T) {
	ms := []PopulationMeasurement{
		{Engine: "count", N: 1_000, NsPerPhase: 10},
		{Engine: "count", N: 1_000_000, NsPerPhase: 15},
		{Engine: "agents", N: 1_000, NsPerPhase: 12},
	}
	r, err := PhaseCostRatio(ms, "count", 1_000_000, 1_000)
	if err != nil || r != 1.5 {
		t.Fatalf("ratio = %v, %v; want 1.5, nil", r, err)
	}
	if _, err := PhaseCostRatio(ms, "agents", 1_000_000, 1_000); err == nil {
		t.Fatal("missing pair must error")
	}
}

// The tentpole acceptance number: the count engine's per-phase cost at a
// million agents stays within 2x of its cost at a thousand — O(paths) with
// only the Poisson-round tail growing (~log N), not O(agents). Each
// population's cost is the minimum over interleaved repetitions of a block
// of runs: a burst of load on the machine inflates only the repetitions it
// overlaps, not the minimum, and load lasting the whole test slows both
// populations alike. On Linux a block is timed by the CPU clock of the
// test's thread (elsewhere by wall time), so the slices the thread spends
// descheduled on a loaded machine do not count.
func TestCountPhaseCostNearFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive benchmark comparison")
	}
	inst, err := topo.Braess()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	ws := flow.NewWorkspace()
	ms := []PopulationMeasurement{
		{Engine: "count", N: 1_000, NsPerPhase: math.Inf(1)},
		{Engine: "count", N: 1_000_000, NsPerPhase: math.Inf(1)},
	}
	runs := make([]func() error, len(ms))
	for i, m := range ms {
		runs[i] = countRun(inst, pol, ws, m.N)
		if err := runs[i](); err != nil {
			t.Fatal(err)
		}
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const reps, block = 15, 20
	for r := 0; r < reps; r++ {
		for k := range ms {
			i := (k + r) % len(ms) // alternate which population goes first
			start := threadTime(t)
			for b := 0; b < block; b++ {
				if err := runs[i](); err != nil {
					t.Fatal(err)
				}
			}
			ns := float64((threadTime(t) - start).Nanoseconds()) / (block * meanfieldPhases)
			ms[i].NsPerPhase = math.Min(ms[i].NsPerPhase, ns)
		}
	}
	r, err := PhaseCostRatio(ms, "count", 1_000_000, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("count engine phase cost ratio 1e6/1e3 = %.2f (%.0f / %.0f ns)", r, ms[1].NsPerPhase, ms[0].NsPerPhase)
	if r > 2 {
		t.Errorf("count engine phase cost ratio 1e6/1e3 = %.2f, want <= 2", r)
	}
}

// BenchmarkMeanfieldPhase is the population-scaling smoke benchmark: one op
// is a full 40-phase count-engine run; the sub-benchmarks sweep three
// decades of population, and the ns/op column should stay near-flat.
func BenchmarkMeanfieldPhase(b *testing.B) {
	inst, err := topo.Braess()
	if err != nil {
		b.Fatal(err)
	}
	pol, err := policy.Replicator(inst.LMax())
	if err != nil {
		b.Fatal(err)
	}
	ws := flow.NewWorkspace()
	for _, n := range []int64{1_000, 100_000, 10_000_000} {
		b.Run(fmt.Sprintf("count/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim, err := meanfield.New(inst, meanfield.Config{
					N: n, Policy: pol, UpdatePeriod: 0.25, Horizon: 10,
					Seed: 7, RunShape: dynamics.RunShape{Workspace: ws},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.RunContext(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
