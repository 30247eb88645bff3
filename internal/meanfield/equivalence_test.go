package meanfield

import (
	"context"
	"math"
	"testing"

	"wardrop/internal/agents"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/topo"
)

// summary condenses replicate outcomes for the equivalence comparisons.
type summary struct {
	mean, variance float64
}

func summarize(xs []float64) summary {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return summary{mean: mean, variance: ss / float64(len(xs)-1)}
}

// The count engine is distributionally equivalent to the per-agent batched
// engine by construction (within a phase, agents are independent Markov
// chains against the frozen board, so phase-end counts are sums of
// independent multinomials — exactly what the count engine samples). This
// test checks it empirically at a moderate population: over fixed-seed
// replicate sets, the final-potential and per-path final-flow statistics of
// the two engines must agree within small multiples of the standard error.
// Everything is seeded, so the test is deterministic.
func TestDistributionalEquivalenceVsAgents(t *testing.T) {
	inst := braess(t)
	pol := testPolicy(t, inst)
	const (
		n       = 2000
		T       = 0.25
		horizon = 8
		reps    = 40
	)
	countPhi := make([]float64, 0, reps)
	agentPhi := make([]float64, 0, reps)
	countF0 := make([]float64, 0, reps)
	agentF0 := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		seed := topo.DeriveSeed(1234, uint64(rep))
		cs, err := New(inst, Config{N: n, Policy: pol, UpdatePeriod: T, Horizon: horizon, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cres, err := cs.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		countPhi = append(countPhi, cres.FinalPotential)
		countF0 = append(countF0, cres.Final[0])

		as, err := agents.New(inst, agents.Config{N: n, Policy: pol, UpdatePeriod: T, Horizon: horizon, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ares, err := as.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		agentPhi = append(agentPhi, ares.FinalPotential)
		agentF0 = append(agentF0, ares.Final[0])
	}
	check := func(name string, c, a []float64) {
		cs, as := summarize(c), summarize(a)
		se := math.Sqrt((cs.variance + as.variance) / reps)
		if d := math.Abs(cs.mean - as.mean); d > 4*se+1e-9 {
			t.Errorf("%s: mean %g (count) vs %g (agents), |diff| %g > 4·se %g", name, cs.mean, as.mean, d, 4*se)
		}
		// Variances of the same distribution agree within a broad factor.
		lo, hi := cs.variance, as.variance
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > 4*lo+1e-12 {
			t.Errorf("%s: variance %g (count) vs %g (agents) differ by more than 4x", name, cs.variance, as.variance)
		}
	}
	check("final potential", countPhi, agentPhi)
	check("final flow[0]", countF0, agentF0)

	// Pin the fixed-seed summary statistics so any change to the sampling
	// scheme, the seed discipline or the placement is caught, not just
	// statistical drift. (The values are pure float64 arithmetic on the
	// splitmix stream; the tolerance absorbs FMA-contraction differences
	// across architectures.)
	pin := func(name, unit string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("pinned %s %s = %.15g, want %.15g", name, unit, got, want)
		}
	}
	cphi := summarize(countPhi)
	pin("count", "mean final potential", cphi.mean, pinnedCountMeanPhi)
	pin("count", "variance of final potential", cphi.variance, pinnedCountVarPhi)
}

// Fixed-seed pinned summary statistics for the equivalence test's count runs
// (braess, proportional+linear, N=2000, T=0.25, horizon=8, base seed 1234,
// 40 replicates).
const (
	pinnedCountMeanPhi = 1.04283176875
	pinnedCountVarPhi  = 3.3146660517227e-06
)

// As N grows the count engine's trajectory concentrates on the fluid limit:
// at N = 10^6 the final potential must sit within a tight band of the fluid
// engine's. This is the E10 law-of-large-numbers check at a population the
// per-agent engine would need ~10^2 more memory and time to reach.
func TestLargePopulationApproachesFluid(t *testing.T) {
	inst := braess(t)
	pol := testPolicy(t, inst)
	const (
		T       = 0.25
		horizon = 12
	)
	s, err := New(inst, Config{N: 1_000_000, Policy: pol, UpdatePeriod: T, Horizon: horizon, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fres, err := dynamics.Run(context.Background(), inst, dynamics.Config{
		Policy:       pol,
		UpdatePeriod: T,
		Horizon:      horizon,
		Integrator:   dynamics.Uniformization,
	}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(cres.FinalPotential - fres.FinalPotential); d > 5e-3 {
		t.Errorf("count(1e6) potential %g vs fluid %g: |diff| = %g > 5e-3", cres.FinalPotential, fres.FinalPotential, d)
	}
	var _ flow.Vector = cres.Final
}
