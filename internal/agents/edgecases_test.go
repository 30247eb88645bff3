package agents

import (
	"context"
	"math"
	"testing"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/latency"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// A single agent is a legal population: it must hop between links without
// ever violating feasibility, and Workers is clamped to N.
func TestSingleAgent(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	s, err := New(inst, Config{N: 1, Policy: pol, UpdatePeriod: 0.5, Horizon: 20, Seed: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Feasible(res.Final, 1e-9); err != nil {
		t.Errorf("single-agent flow infeasible: %v", err)
	}
	// Exactly one path carries the whole unit of demand.
	ones := 0
	for _, x := range res.Final {
		if math.Abs(x-1) < 1e-12 {
			ones++
		}
	}
	if ones != 1 {
		t.Errorf("single agent spread across paths: %v", res.Final)
	}
}

// More commodities than agents is rejected rather than silently dropping a
// commodity.
func TestTooFewAgentsForCommodities(t *testing.T) {
	inst, err := topo.MultiCommodityParallel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	pol := mustReplicator(t, inst.LMax())
	// N=2 but 4 commodities: every commodity still gets >= 1 agent, so the
	// adjustment must fail loudly (largest commodity would go below 1).
	if _, err := New(inst, Config{N: 2, Policy: pol, UpdatePeriod: 0.5, Horizon: 1}); err == nil {
		t.Error("N < commodities accepted")
	}
}

// With better response as the migrator, the finite population reproduces the
// §3.2 flip-flopping: the majority share alternates across phases.
func TestFiniteAgentsBestResponseOscillation(t *testing.T) {
	beta := 8.0
	inst, err := topo.TwoLinkKink(beta)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.Policy{Sampler: policy.Uniform{}, Migrator: policy.BetterResponse{}}
	var f1s []float64
	s, err := New(inst, Config{
		N: 4000, Policy: pol, UpdatePeriod: 1.0, Horizon: 30, Seed: 4, Workers: 2,
		InitialFlow: flow.Vector{0.9, 0.1},
		RunShape: dynamics.RunShape{
			Observer: dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
				f1s = append(f1s, info.Flow[0])
				return false
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	flips := 0
	for i := 1; i < len(f1s); i++ {
		if (f1s[i] > 0.5) != (f1s[i-1] > 0.5) {
			flips++
		}
	}
	if flips < len(f1s)/3 {
		t.Errorf("finite-N better response did not oscillate: %d flips in %d phases (%v)", flips, len(f1s), f1s[:6])
	}
}

// Degenerate constant-latency instance: agents never migrate (no strict
// improvement exists), so the empirical flow is frozen.
func TestAgentsFrozenOnConstantLatencies(t *testing.T) {
	inst, err := topo.ParallelLinks([]latency.Function{
		latency.Constant{C: 2}, latency.Constant{C: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	pol := mustReplicator(t, inst.LMax())
	s, err := New(inst, Config{N: 100, Policy: pol, UpdatePeriod: 0.5, Horizon: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := s.EmpiricalFlow()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Final.MaxAbsDiff(before); d != 0 {
		t.Errorf("agents migrated %g on equal latencies", d)
	}
}

// Workers exceeding GOMAXPROCS or N must not break determinism of the
// per-shard decomposition (counts always sum to N).
func TestShardCountInvariant(t *testing.T) {
	inst, err := topo.MultiCommodityParallel(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pol := mustReplicator(t, inst.LMax())
	for _, workers := range []int{1, 3, 7, 64} {
		s, err := New(inst, Config{N: 97, Policy: pol, UpdatePeriod: 0.3, Horizon: 6, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, x := range res.Final {
			total += x
		}
		if math.Abs(total-inst.TotalDemand()) > 1e-9 {
			t.Errorf("workers=%d: demand drifted to %g", workers, total)
		}
	}
}

var benchSink flow.Vector

// BenchmarkAgentPhase measures full batched runs from construction. links16
// runs 10⁴ agents on four workers for ten phases from the even spread.
// grid3 is the sim-dense workload's agents document on one worker: 10⁵
// agents, six phases at the safe period from the skewed start.
func BenchmarkAgentPhase(b *testing.B) {
	links, err := topo.LinearParallelLinks(16)
	if err != nil {
		b.Fatal(err)
	}
	grid3, err := topo.Grid(3)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		inst *flow.Instance
		cfg  Config
	}{
		{"links16/N=1e4/w4", links, Config{N: 10000, UpdatePeriod: 0.25, Horizon: 2.5, Workers: 4}},
		{"grid3/N=1e5/w1", grid3, denseConfig(b, grid3, 100_000, 6)},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.cfg
			cfg.Policy = mustReplicator(b, c.inst.LMax())
			cfg.Seed = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := New(c.inst, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res.Final
			}
		})
	}
}

// denseConfig is a sim-dense agents document's run shape as a one-worker
// Config without its policy: n agents, phases phases at the replicator's
// safe update period, starting with 90% of each commodity's demand on its
// path of highest free-flow latency and the rest spread evenly.
func denseConfig(b *testing.B, inst *flow.Instance, n, phases int) Config {
	b.Helper()
	T, err := policy.SafeUpdatePeriodFor(mustReplicator(b, inst.LMax()), inst.Beta(), inst.MaxPathLen())
	if err != nil {
		b.Fatal(err)
	}
	f0 := make(flow.Vector, inst.NumPaths())
	free := inst.PathLatencies(make(flow.Vector, inst.NumPaths()))
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, hi := inst.CommodityRange(i)
		d := inst.Commodity(i).Demand
		worst := lo
		for g := lo; g < hi; g++ {
			f0[g] = 0.1 * d / float64(hi-lo)
			if free[g] > free[worst] {
				worst = g
			}
		}
		f0[worst] += 0.9 * d
	}
	return Config{N: n, UpdatePeriod: T, Horizon: float64(phases) * T, InitialFlow: f0, Workers: 1}
}
