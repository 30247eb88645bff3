package bench

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/solver"
	"wardrop/internal/topo"
)

// ScalingMeasurement is one size point of the kernelScaling suite: the full
// evaluation pass (edge flows, edge latencies, path latencies, potential)
// on a seeded sparse-random instance, measured two ways — the seed's naive
// reference pipeline and the compiled kernel — the cost of one warm
// one-phase run, plus a Frank–Wolfe equilibrium solve recorded as a
// cross-check that the instance is well-posed.
type ScalingMeasurement struct {
	// Family and Edges identify the workload; ActualEdges and Paths are the
	// realised instance shape (the generator hits Edges exactly for
	// sparse-random, but the path count depends on what Yen enumerates).
	// LiveEdges counts the edges on at least one path: the edges a kernel
	// pass visits.
	Family      string `json:"family"`
	Edges       int    `json:"edges"`
	ActualEdges int    `json:"actualEdges"`
	LiveEdges   int    `json:"liveEdges"`
	Paths       int    `json:"paths"`
	// BuildNs is the wall time of one instance build: generating the graph
	// and searching every commodity's k shortest paths (concurrently, on
	// up to GOMAXPROCS goroutines).
	BuildNs float64 `json:"buildNs"`
	// ReferenceNs and SerialNs are ns per full evaluation pass of the
	// reference pipeline and of the kernel.
	ReferenceNs float64 `json:"referenceNs"`
	SerialNs    float64 `json:"serialNs"`
	// Speedup is ReferenceNs/SerialNs — the headline "kernel vs seed"
	// ratio.
	Speedup float64 `json:"speedup"`
	// WarmRunNs and WarmRunBytes are the wall time and heap bytes of one
	// best-response run of a single phase on a workspace an earlier run on
	// the same instance warmed: the per-run set-up (driver, board
	// evaluator, scratch) plus one phase, what a run pays beyond its
	// steady-state phases.
	WarmRunNs    float64 `json:"warmRunNs"`
	WarmRunBytes int64   `json:"warmRunBytes"`
	// Equilibrium cross-check: the relative gap, Beckmann potential and
	// iteration count Frank–Wolfe reaches on this instance under a capped
	// budget. Recorded, not asserted — the point is that the large random
	// families feed the solver, not a convergence guarantee.
	SolverRelGap    float64 `json:"solverRelGap"`
	SolverPotential float64 `json:"solverPotential"`
	SolverIters     int     `json:"solverIters"`
}

// ScalingSuite measures the evaluation kernel across instance sizes (edge
// counts) on the seeded sparse-random family. Each size gets a fixed seed,
// so reruns on one machine are directly comparable.
func ScalingSuite(sizes []int) ([]ScalingMeasurement, error) {
	var out []ScalingMeasurement
	for _, edges := range sizes {
		m, err := scalingPoint(edges)
		if err != nil {
			return nil, fmt.Errorf("scaling point %d: %w", edges, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// liveEdges counts the edges of inst that lie on at least one path.
func liveEdges(inst *flow.Instance) int {
	live := map[graph.EdgeID]bool{}
	for g := 0; g < inst.NumPaths(); g++ {
		for _, e := range inst.Path(g).Edges {
			live[e] = true
		}
	}
	return len(live)
}

func scalingPoint(edges int) (ScalingMeasurement, error) {
	const (
		commodities = 8
		kPaths      = 8
		seed        = 0x5ca1e
	)
	start := time.Now()
	inst, err := topo.SparseRandom(edges, 4, commodities, kPaths, seed)
	if err != nil {
		return ScalingMeasurement{}, err
	}
	buildNs := float64(time.Since(start).Nanoseconds())
	nE := inst.Graph().NumEdges()
	nP := inst.NumPaths()
	m := ScalingMeasurement{
		Family:      "sparse-random",
		Edges:       edges,
		ActualEdges: nE,
		LiveEdges:   liveEdges(inst),
		Paths:       nP,
		BuildNs:     buildNs,
	}

	// A mildly uneven flow so the latency evaluation is not all-zeros.
	f := inst.UniformFlow()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, hi := inst.CommodityRange(i)
		p := lo + rng.Intn(hi-lo)
		q := lo + rng.Intn(hi-lo)
		amt := f[p] / 2
		f[p] -= amt
		f[q] += amt
	}

	fe := make([]float64, nE)
	le := make([]float64, nE)
	pl := make([]float64, nP)
	m.ReferenceNs = measure(fmt.Sprintf("scale/%d/reference", edges), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst.EdgeFlows(f, fe)
			inst.EdgeLatencies(fe, le)
			inst.PathLatenciesFromEdges(le, pl)
			_ = inst.PotentialFromEdges(fe)
		}
	}).NsPerOp

	ev := flow.NewEvaluator(inst, nil)
	m.SerialNs = measure(fmt.Sprintf("scale/%d/serial", edges), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev.Eval(f)
			_ = ev.Potential()
		}
	}).NsPerOp
	m.Speedup = m.ReferenceNs / m.SerialNs

	ws := flow.NewWorkspace()
	warmRun := func() error {
		_, err := dynamics.RunBestResponse(context.Background(), inst, dynamics.BestResponseConfig{
			UpdatePeriod: 1,
			Horizon:      1,
			RunShape:     dynamics.RunShape{Workspace: ws},
		}, f)
		return err
	}
	if err := warmRun(); err != nil {
		return ScalingMeasurement{}, err
	}
	warm := measure(fmt.Sprintf("scale/%d/warm-run", edges), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := warmRun(); err != nil {
				b.Fatal(err)
			}
		}
	})
	m.WarmRunNs = warm.NsPerOp
	m.WarmRunBytes = warm.BytesPerOp

	res, err := solver.SolveEquilibrium(inst, solver.Options{MaxIters: 100, RelGapTol: 1e-6})
	if err != nil {
		return ScalingMeasurement{}, err
	}
	m.SolverRelGap = res.RelGap
	m.SolverPotential = res.Potential
	m.SolverIters = res.Iters
	return m, nil
}
