// Package bench measures the compiled evaluation kernel against the seed
// (reference) implementation it replaced, producing the machine-readable
// measurements wardbench writes to BENCH_kernel.json. The reference side is
// a faithful copy of the seed's per-phase pipeline — naive
// EdgeFlows/EdgeLatencies/PathLatenciesFromEdges evaluation, a row-major
// rate matrix filled through per-entry interface dispatch, and the
// column-walk uniformization kernel — kept here both as the performance
// baseline and as one more differential check (the two pipelines must agree
// bit-for-bit; TestReferenceFluidMatchesKernel pins it).
package bench

import (
	"context"
	"fmt"
	"math"
	"testing"

	"wardrop/internal/agents"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// Measurement is one benchmark result destined for BENCH_kernel.json.
type Measurement struct {
	// Name identifies the workload, e.g. "fluid/grid/kernel".
	Name string `json:"name"`
	// NsPerOp is wall time per operation.
	NsPerOp float64 `json:"nsPerOp"`
	// AllocsPerOp and BytesPerOp are heap allocation counts per operation.
	AllocsPerOp int64 `json:"allocsPerOp"`
	BytesPerOp  int64 `json:"bytesPerOp"`
}

// measure runs fn under testing.Benchmark and records it.
func measure(name string, fn func(b *testing.B)) Measurement {
	r := testing.Benchmark(fn)
	return Measurement{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// GridWorkload is the shared fluid-dynamics benchmark workload: an n×n grid
// (monotone lattice paths) under replicator dynamics with a fixed board
// period.
type GridWorkload struct {
	Inst    *flow.Instance
	Pol     policy.Policy
	T       float64
	Horizon float64
	F0      flow.Vector
}

// NewGridWorkload builds the workload on an n×n grid.
func NewGridWorkload(n int) (*GridWorkload, error) {
	inst, err := topo.Grid(n)
	if err != nil {
		return nil, err
	}
	pol, err := policy.Replicator(inst.LMax())
	if err != nil {
		return nil, err
	}
	return &GridWorkload{
		Inst:    inst,
		Pol:     pol,
		T:       0.5,
		Horizon: 10,
		F0:      inst.SinglePathFlow(0),
	}, nil
}

// --- Reference (seed) pipeline -------------------------------------------

// refRateMatrix is the seed's row-major rate matrix: rates[i][p*n+q] is the
// rate from p to q, filled with one sampler call per origin row and one
// migrator interface call per entry, and read column-wise by the
// uniformization kernel.
type refRateMatrix struct {
	inst    *flow.Instance
	rates   [][]float64
	rowSums [][]float64
	probs   [][]float64
	maxRate float64
}

func newRefRateMatrix(inst *flow.Instance) *refRateMatrix {
	rm := &refRateMatrix{inst: inst}
	for i := 0; i < inst.NumCommodities(); i++ {
		n := inst.NumCommodityPaths(i)
		rm.rates = append(rm.rates, make([]float64, n*n))
		rm.rowSums = append(rm.rowSums, make([]float64, n))
		rm.probs = append(rm.probs, make([]float64, n))
	}
	return rm
}

func (rm *refRateMatrix) fill(pol policy.Policy, boardFlows flow.Vector, boardLats []float64) {
	rm.maxRate = 0
	for i := 0; i < rm.inst.NumCommodities(); i++ {
		lo, hi := rm.inst.CommodityRange(i)
		n := hi - lo
		rates := rm.rates[i]
		sums := rm.rowSums[i]
		probs := rm.probs[i]
		flows := boardFlows[lo:hi]
		lats := boardLats[lo:hi]
		for p := 0; p < n; p++ {
			pol.Sampler.Probabilities(p, flows, lats, probs)
			row := rates[p*n : (p+1)*n]
			sum := 0.0
			for q := 0; q < n; q++ {
				if q == p {
					row[q] = 0
					continue
				}
				r := probs[q] * pol.Migrator.Probability(lats[p], lats[q])
				row[q] = r
				sum += r
			}
			sums[p] = sum
			if sum > rm.maxRate {
				rm.maxRate = sum
			}
		}
	}
}

func (rm *refRateMatrix) applyTranspose(v, out []float64, lambda float64) {
	for i := 0; i < rm.inst.NumCommodities(); i++ {
		lo, hi := rm.inst.CommodityRange(i)
		n := hi - lo
		rates := rm.rates[i]
		sums := rm.rowSums[i]
		for p := 0; p < n; p++ {
			acc := v[lo+p] * (1 - sums[p]/lambda)
			for q := 0; q < n; q++ {
				if q == p {
					continue
				}
				acc += v[lo+q] * rates[q*n+p] / lambda
			}
			out[lo+p] = acc
		}
	}
}

func refUniformization(rm *refRateMatrix, f flow.Vector, tau float64, vCur, vNext, acc []float64) {
	lambda := rm.maxRate
	if lambda <= 0 {
		return
	}
	x := lambda * tau
	weight := math.Exp(-x)
	copy(vCur, f)
	for i := range acc {
		acc[i] = weight * vCur[i]
	}
	maxTerms := int(x + 30*math.Sqrt(x+1) + 20)
	cum := weight
	for n := 1; n <= maxTerms; n++ {
		rm.applyTranspose(vCur, vNext, lambda)
		vCur, vNext = vNext, vCur
		weight *= x / float64(n)
		cum += weight
		for i := range acc {
			acc[i] += weight * vCur[i]
		}
		if 1-cum < 1e-14 {
			break
		}
	}
	copy(f, acc)
}

// ReferenceFluid runs the seed fluid pipeline (uniformization) on the
// workload and returns the final potential. It is the "before" side of the
// fluid/grid benchmark and must agree bit-for-bit with dynamics.Run.
func (w *GridWorkload) ReferenceFluid() float64 {
	inst := w.Inst
	f := w.F0.Clone()
	rm := newRefRateMatrix(inst)
	n := inst.NumPaths()
	var (
		fe, le []float64
		pl     = make([]float64, n)
		uA     = make([]float64, n)
		uB     = make([]float64, n)
		uC     = make([]float64, n)
	)
	t := 0.0
	for t < w.Horizon-1e-12 {
		fe = inst.EdgeFlows(f, fe)
		le = inst.EdgeLatencies(fe, le)
		inst.PathLatenciesFromEdges(le, pl)
		_ = inst.PotentialFromEdges(fe)
		rm.fill(w.Pol, f, pl)
		tau := math.Min(w.T, w.Horizon-t)
		refUniformization(rm, f, tau, uA, uB, uC)
		inst.Project(f, 1e-9)
		t += tau
	}
	return inst.Potential(f)
}

// KernelFluid runs the same workload on the rebuilt engine (compiled
// kernel, transposed rates, workspace scratch) and returns the final
// potential.
func (w *GridWorkload) KernelFluid(ws *flow.Workspace) (float64, error) {
	res, err := dynamics.Run(context.Background(), w.Inst, dynamics.Config{
		Policy:       w.Pol,
		UpdatePeriod: w.T,
		Horizon:      w.Horizon,
		Integrator:   dynamics.Uniformization,
		RunShape:     dynamics.RunShape{Workspace: ws},
	}, w.F0)
	if err != nil {
		return 0, err
	}
	return res.FinalPotential, nil
}

// ReferenceEval performs one seed-style full state evaluation (edge flows,
// edge latencies, path latencies, potential) into the provided scratch.
func (w *GridWorkload) ReferenceEval(f flow.Vector, fe, le, pl []float64) float64 {
	w.Inst.EdgeFlows(f, fe)
	w.Inst.EdgeLatencies(fe, le)
	w.Inst.PathLatenciesFromEdges(le, pl)
	return w.Inst.PotentialFromEdges(fe)
}

// --- Suite ----------------------------------------------------------------

// KernelSuite runs the kernel-vs-reference benchmark suite and returns the
// measurements. Pairs share a "<workload>/" prefix with "/reference" and
// "/kernel" leaves; Speedup derives the headline ratios.
func KernelSuite(gridN int) ([]Measurement, error) {
	w, err := NewGridWorkload(gridN)
	if err != nil {
		return nil, err
	}
	inst := w.Inst
	nE := inst.Graph().NumEdges()
	nP := inst.NumPaths()

	var ms []Measurement

	// Full fluid runs: seed pipeline vs rebuilt engine.
	ms = append(ms, measure("fluid/grid/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = w.ReferenceFluid()
		}
	}))
	ws := flow.NewWorkspace()
	if _, err := w.KernelFluid(ws); err != nil {
		return nil, err
	}
	ms = append(ms, measure("fluid/grid/kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.KernelFluid(ws); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Full state evaluation: naive reference vs compiled kernel.
	f := inst.UniformFlow()
	fe := make([]float64, nE)
	le := make([]float64, nE)
	pl := make([]float64, nP)
	ms = append(ms, measure("eval/grid/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = w.ReferenceEval(f, fe, le, pl)
		}
	}))
	ev := flow.NewEvaluator(inst, nil)
	ms = append(ms, measure("eval/grid/kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.Eval(f)
			_ = ev.Potential()
		}
	}))

	// Sparse update (one two-path move): reference full recompute vs
	// incremental ApplyDelta.
	lo, hi := inst.CommodityRange(0)
	p, q := lo, hi-1
	ms = append(ms, measure("delta/grid/reference", func(b *testing.B) {
		b.ReportAllocs()
		amt := f[p] / 2
		for i := 0; i < b.N; i++ {
			f[p] -= amt
			f[q] += amt
			_ = w.ReferenceEval(f, fe, le, pl)
			amt = -amt
		}
	}))
	ev.Eval(f)
	ms = append(ms, measure("delta/grid/kernel", func(b *testing.B) {
		b.ReportAllocs()
		amt := f[p] / 2
		for i := 0; i < b.N; i++ {
			ev.ApplyDelta(f, p, q, amt)
			_ = ev.Potential()
			amt = -amt
		}
	}))

	// Sparse update on wide parallel links: every path is two edges deep
	// and shares nothing, the incremental regime the agent engine's
	// between-phase moves live in.
	links, err := topo.LinearParallelLinks(256)
	if err != nil {
		return nil, err
	}
	lf := links.UniformFlow()
	lfe := make([]float64, links.Graph().NumEdges())
	lle := make([]float64, links.Graph().NumEdges())
	lpl := make([]float64, links.NumPaths())
	llo, lhi := links.CommodityRange(0)
	ms = append(ms, measure("delta/links/reference", func(b *testing.B) {
		b.ReportAllocs()
		amt := lf[llo] / 2
		for i := 0; i < b.N; i++ {
			lf[llo] -= amt
			lf[lhi-1] += amt
			links.EdgeFlows(lf, lfe)
			links.EdgeLatencies(lfe, lle)
			links.PathLatenciesFromEdges(lle, lpl)
			_ = links.PotentialFromEdges(lfe)
			amt = -amt
		}
	}))
	lev := flow.NewEvaluator(links, nil)
	lev.Eval(lf)
	_ = lev.Potential()
	ms = append(ms, measure("delta/links/kernel", func(b *testing.B) {
		b.ReportAllocs()
		amt := lf[llo] / 2
		for i := 0; i < b.N; i++ {
			lev.ApplyDelta(lf, llo, lhi-1, amt)
			_ = lev.Potential()
			amt = -amt
		}
	}))

	// Agent engine end-to-end allocation profile (the satellite's
	// "measurable allocs/op reduction": the per-phase reference block below
	// allocates, the engine's phases no longer do).
	braess, err := topo.Braess()
	if err != nil {
		return nil, err
	}
	apol, err := policy.Replicator(braess.LMax())
	if err != nil {
		return nil, err
	}
	aws := flow.NewWorkspace()
	runAgents := func() error {
		sim, err := agents.New(braess, agents.Config{
			N: 2000, Policy: apol, UpdatePeriod: 0.25, Horizon: 10,
			Seed: 7, Workers: 1, RunShape: dynamics.RunShape{Workspace: aws},
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
	ms = append(ms, measure("agents/braess/run-kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := runAgents(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The seed's per-phase board refresh: a fresh empirical flow plus naive
	// evaluation plus the two posted copies, 40 phases' worth per op to
	// mirror the run above.
	sim, err := agents.New(braess, agents.Config{
		N: 2000, Policy: apol, UpdatePeriod: 0.25, Horizon: 10, Seed: 7, Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	bfe := make([]float64, braess.Graph().NumEdges())
	ble := make([]float64, braess.Graph().NumEdges())
	bpl := make([]float64, braess.NumPaths())
	ms = append(ms, measure("agents/braess/refresh-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for phase := 0; phase < 40; phase++ {
				bf := sim.EmpiricalFlow()
				braess.EdgeFlows(bf, bfe)
				braess.EdgeLatencies(bfe, ble)
				braess.PathLatenciesFromEdges(ble, bpl)
				_ = braess.PotentialFromEdges(bfe)
				_ = append([]float64(nil), ble...)
				_ = append([]float64(nil), bpl...)
			}
		}
	}))
	return ms, nil
}

// Speedup returns NsPerOp(prefix+"/reference") / NsPerOp(prefix+"/kernel"),
// or an error when either side is missing.
func Speedup(ms []Measurement, prefix string) (float64, error) {
	var ref, ker float64
	for _, m := range ms {
		switch m.Name {
		case prefix + "/reference":
			ref = m.NsPerOp
		case prefix + "/kernel":
			ker = m.NsPerOp
		}
	}
	if ref == 0 || ker == 0 {
		return 0, fmt.Errorf("bench: missing pair for %q", prefix)
	}
	return ref / ker, nil
}
