package bench

import (
	"context"
	"fmt"
	"testing"

	"wardrop/internal/agents"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/meanfield"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// PopulationMeasurement is one point on the population-scaling curve
// destined for BENCH_kernel.json's "meanfield" suite: the per-phase cost of
// one engine at one population.
type PopulationMeasurement struct {
	// Name identifies the point, e.g. "meanfield/count/n=1000000".
	Name string `json:"name"`
	// Engine is "count" or "agents".
	Engine string `json:"engine"`
	// N is the population.
	N int64 `json:"n"`
	// NsPerPhase is wall time per simulated phase. The per-agent engine
	// grows linearly in N; the count engine stays near-flat (O(paths) with
	// a ~log N round factor).
	NsPerPhase float64 `json:"nsPerPhase"`
	// AllocsPerOp is the heap allocation count per full run (workspace
	// reuse keeps both engines' steady-state phases allocation-free).
	AllocsPerOp int64 `json:"allocsPerOp"`
}

// DefaultCountPopulations is the count-engine population axis: four decades,
// ending three decades beyond the per-agent engine's axis.
var DefaultCountPopulations = []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// DefaultAgentPopulations is the per-agent population axis; the linear
// growth is visible well before the engine's hard cap.
var DefaultAgentPopulations = []int64{1_000, 10_000, 100_000}

// The suite's run shape: update period, horizon and their ratio, the
// phase count of one benchmark run.
const (
	meanfieldT       = 0.25
	meanfieldHorizon = 10.0
	meanfieldPhases  = 40
)

// countRun returns one full count-engine run on the suite's workload at
// population n, on workspace ws.
func countRun(inst *flow.Instance, pol policy.Policy, ws *flow.Workspace, n int64) func() error {
	return func() error {
		sim, err := meanfield.New(inst, meanfield.Config{
			N: n, Policy: pol, UpdatePeriod: meanfieldT, Horizon: meanfieldHorizon,
			Seed: 7, RunShape: dynamics.RunShape{Workspace: ws},
		})
		if err != nil {
			return err
		}
		_, err = sim.RunContext(context.Background())
		return err
	}
}

// MeanfieldSuite measures the population-scaling curve on a shared Braess
// workload: one op is a full 40-phase run, reported as ns/phase. Pass nil
// axes to use the defaults.
func MeanfieldSuite(countNs, agentNs []int64) ([]PopulationMeasurement, error) {
	if countNs == nil {
		countNs = DefaultCountPopulations
	}
	if agentNs == nil {
		agentNs = DefaultAgentPopulations
	}
	inst, err := topo.Braess()
	if err != nil {
		return nil, err
	}
	pol, err := policy.Replicator(inst.LMax())
	if err != nil {
		return nil, err
	}
	var ms []PopulationMeasurement
	ws := flow.NewWorkspace()
	for _, n := range countNs {
		runCount := countRun(inst, pol, ws, n)
		if err := runCount(); err != nil {
			return nil, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := runCount(); err != nil {
					b.Fatal(err)
				}
			}
		})
		ms = append(ms, PopulationMeasurement{
			Name:        fmt.Sprintf("meanfield/count/n=%d", n),
			Engine:      "count",
			N:           n,
			NsPerPhase:  float64(r.NsPerOp()) / meanfieldPhases,
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	for _, n := range agentNs {
		runAgents := func() error {
			sim, err := agents.New(inst, agents.Config{
				N: int(n), Policy: pol, UpdatePeriod: meanfieldT, Horizon: meanfieldHorizon,
				Seed: 7, Workers: 1, RunShape: dynamics.RunShape{Workspace: ws},
			})
			if err != nil {
				return err
			}
			_, err = sim.RunContext(context.Background())
			return err
		}
		if err := runAgents(); err != nil {
			return nil, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := runAgents(); err != nil {
					b.Fatal(err)
				}
			}
		})
		ms = append(ms, PopulationMeasurement{
			Name:        fmt.Sprintf("meanfield/agents/n=%d", n),
			Engine:      "agents",
			N:           n,
			NsPerPhase:  float64(r.NsPerOp()) / meanfieldPhases,
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return ms, nil
}

// PhaseCostRatio returns NsPerPhase(engine, nHi) / NsPerPhase(engine, nLo) —
// the flatness headline: ~1 for the count engine across three decades,
// ~nHi/nLo for the per-agent engine.
func PhaseCostRatio(ms []PopulationMeasurement, engine string, nHi, nLo int64) (float64, error) {
	var hi, lo float64
	for _, m := range ms {
		if m.Engine != engine {
			continue
		}
		switch m.N {
		case nHi:
			hi = m.NsPerPhase
		case nLo:
			lo = m.NsPerPhase
		}
	}
	if hi == 0 || lo == 0 {
		return 0, fmt.Errorf("bench: missing %s population pair %d/%d", engine, nHi, nLo)
	}
	return hi / lo, nil
}
