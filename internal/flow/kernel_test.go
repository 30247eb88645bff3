package flow_test

// Differential tests for the compiled evaluation kernel: the Evaluator
// (full and incremental paths) must reproduce the naive reference methods
// (EdgeFlows / EdgeLatencies / PathLatenciesFromEdges / PotentialFromEdges)
// bit-for-bit across topologies, latency kinds and randomized delta
// sequences — the property the engines' golden-output stability rests on.

import (
	"fmt"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
	"wardrop/internal/topo"
)

// allKinds returns one instance of every builtin latency kind plus the
// generic wrappers (Scaled/Shifted/Sum), cycled to the requested length.
func allKinds(n int) []latency.Function {
	poly, err := latency.NewPolynomial(0.1, 0, 0.5, 0.2)
	if err != nil {
		panic(err)
	}
	bpr, err := latency.NewBPR(1.0, 0.8)
	if err != nil {
		panic(err)
	}
	mm1, err := latency.NewMM1(1.5)
	if err != nil {
		panic(err)
	}
	pwl, err := latency.NewPiecewiseLinear([]float64{0, 0.3, 1}, []float64{0.1, 0.2, 0.9})
	if err != nil {
		panic(err)
	}
	kinds := []latency.Function{
		latency.Constant{C: 0.4},
		latency.Linear{Slope: 1.2, Offset: 0.1},
		poly,
		latency.Monomial{Coef: 0.7, Degree: 3},
		bpr,
		mm1,
		pwl,
		latency.Kink(2.5),
		latency.Scaled{F: latency.Linear{Slope: 1, Offset: 0.2}, Factor: 0.5},
		latency.Shifted{F: latency.Monomial{Coef: 1, Degree: 2}, Offset: 0.3},
		latency.Sum{A: latency.Constant{C: 0.1}, B: latency.Linear{Slope: 0.8}},
	}
	out := make([]latency.Function, n)
	for i := range out {
		out[i] = kinds[i%len(kinds)]
	}
	return out
}

// mixedGrid builds an n×n grid whose edges cycle through every latency
// kind, exercising all batch groups and the generic fallback on one
// incidence structure.
func mixedGrid(t testing.TB, n int) *flow.Instance {
	t.Helper()
	g := graph.New()
	ids := make([][]graph.NodeID, n)
	for r := 0; r < n; r++ {
		ids[r] = make([]graph.NodeID, n)
		for c := 0; c < n; c++ {
			ids[r][c] = g.MustAddNode(fmt.Sprintf("v%d_%d", r, c))
		}
	}
	edges := 0
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				g.MustAddEdge(ids[r][c], ids[r][c+1])
				edges++
			}
			if r+1 < n {
				g.MustAddEdge(ids[r][c], ids[r+1][c])
				edges++
			}
		}
	}
	inst, err := flow.NewInstance(g, allKinds(edges),
		[]flow.Commodity{{Name: "c0", Source: ids[0][0], Sink: ids[n-1][n-1], Demand: 1}},
		flow.WithMaxPathLen(2*(n-1)))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// kernelInstances is the differential-test topology zoo: mixed-kind
// parallel links, a mixed-kind grid, a random layered DAG and a
// multi-commodity instance.
func kernelInstances(t testing.TB) map[string]*flow.Instance {
	t.Helper()
	links, err := topo.ParallelLinks(allKinds(11))
	if err != nil {
		t.Fatal(err)
	}
	layered, err := topo.LayeredRandom(3, 4, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := topo.MultiCommodityParallel(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*flow.Instance{
		"links":   links,
		"grid":    mixedGrid(t, 4),
		"layered": layered,
		"multi":   multi,
	}
}

// largeInstances builds one 10⁴-edge instance per large family (k-shortest
// path strategy sets keep enumeration tractable at this size).
func largeInstances(t testing.TB) map[string]*flow.Instance {
	t.Helper()
	sparse, err := topo.SparseRandom(10000, 4, 4, 6, 0xabc)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := topo.ScaleFree(10000, 3, 4, 6, 0xdef)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*flow.Instance{
		"sparse-random/10k": sparse,
		"scalefree/10k":     scale,
	}
}

// differentialInstances is the topology zoo plus the large families.
func differentialInstances(t testing.TB) map[string]*flow.Instance {
	t.Helper()
	insts := kernelInstances(t)
	for name, inst := range largeInstances(t) {
		insts[name] = inst
	}
	return insts
}

// reference computes every kernel quantity through the naive methods.
func reference(inst *flow.Instance, f flow.Vector) (fe, le, pl []float64, phi float64) {
	fe = inst.EdgeFlows(f, nil)
	le = inst.EdgeLatencies(fe, nil)
	pl = inst.PathLatenciesFromEdges(le, nil)
	phi = inst.PotentialFromEdges(fe)
	return fe, le, pl, phi
}

// randomFlow draws a non-negative flow with sprinkled exact zeros (the
// reference accumulation skips zero-flow paths; the kernel must too).
func randomFlow(inst *flow.Instance, rng *topo.SplitMix) flow.Vector {
	f := make(flow.Vector, inst.NumPaths())
	for g := range f {
		if rng.Next()%4 == 0 {
			continue
		}
		f[g] = rng.Float64()
	}
	return f
}

// mustEqualBits fails unless got and want are bitwise identical (NaNs with
// equal payloads included).
func mustEqualBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func mustEqualScalarBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: got %v (%#x), want %v (%#x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestEvaluatorFullMatchesReference(t *testing.T) {
	for name, inst := range differentialInstances(t) {
		t.Run(name, func(t *testing.T) {
			rng := &topo.SplitMix{State: 1}
			ev := flow.NewEvaluator(inst, nil)
			for trial := 0; trial < 25; trial++ {
				f := randomFlow(inst, rng)
				ev.Eval(f)
				fe, le, pl, phi := reference(inst, f)
				mustEqualBits(t, "edge flows", ev.EdgeFlows(), fe)
				mustEqualBits(t, "edge latencies", ev.EdgeLatencies(), le)
				mustEqualBits(t, "path latencies", ev.PathLatencies(), pl)
				if math.Float64bits(ev.Potential()) != math.Float64bits(phi) {
					t.Fatalf("potential: got %v, want %v", ev.Potential(), phi)
				}
			}
		})
	}
}

func TestEvaluatorIncrementalMatchesReference(t *testing.T) {
	for name, inst := range differentialInstances(t) {
		t.Run(name, func(t *testing.T) {
			rng := &topo.SplitMix{State: 7}
			ev := flow.NewEvaluator(inst, nil)
			f := inst.UniformFlow()
			ev.Eval(f)
			for step := 0; step < 400; step++ {
				// Random within-commodity move, occasionally draining the
				// origin exactly to zero to exercise the skip logic.
				i := int(rng.Next() % uint64(inst.NumCommodities()))
				lo, hi := inst.CommodityRange(i)
				p := lo + int(rng.Next()%uint64(hi-lo))
				q := lo + int(rng.Next()%uint64(hi-lo))
				amount := rng.Float64() * f[p]
				if rng.Next()%8 == 0 {
					amount = f[p]
				}
				ev.ApplyDelta(f, p, q, amount)

				fe, le, pl, phi := reference(inst, f)
				mustEqualBits(t, "edge flows", ev.EdgeFlows(), fe)
				mustEqualBits(t, "edge latencies", ev.EdgeLatencies(), le)
				mustEqualBits(t, "path latencies", ev.PathLatencies(), pl)
				if math.Float64bits(ev.Potential()) != math.Float64bits(phi) {
					t.Fatalf("step %d: potential got %v, want %v", step, ev.Potential(), phi)
				}
				// The incremental state must also coincide bitwise with a
				// fresh evaluator's full pass over the same flow.
				fresh := flow.NewEvaluator(inst, nil)
				fresh.Eval(f)
				mustEqualBits(t, "vs fresh eval", ev.PathLatencies(), fresh.PathLatencies())
			}
		})
	}
}

func TestEvaluatorUpdateFallback(t *testing.T) {
	inst := mixedGrid(t, 4)
	rng := &topo.SplitMix{State: 3}
	ev := flow.NewEvaluator(inst, nil)
	f := inst.UniformFlow()
	ev.Eval(f)
	// Change every path at once: Update must take the full-eval fallback
	// and still agree with the reference.
	changed := make([]int, inst.NumPaths())
	for g := range f {
		changed[g] = g
		f[g] = rng.Float64()
	}
	ev.Refresh(f, changed...)
	_, _, pl, phi := reference(inst, f)
	mustEqualBits(t, "path latencies", ev.PathLatencies(), pl)
	if math.Float64bits(ev.Potential()) != math.Float64bits(phi) {
		t.Fatalf("potential: got %v, want %v", ev.Potential(), phi)
	}
}

// TestRefreshCostGateFallsBackBitIdentically changes every path at once:
// the Refresh cost gate must take the full-Eval fallback and still produce
// exactly the bits an incremental-only evaluator would have.
func TestRefreshCostGateFallsBackBitIdentically(t *testing.T) {
	for name, inst := range kernelInstances(t) {
		t.Run(name, func(t *testing.T) {
			rng := &topo.SplitMix{State: 3}
			ev := flow.NewEvaluator(inst, nil)
			f := randomFlow(inst, rng)
			ev.Eval(f)
			changed := make([]int, inst.NumPaths())
			for g := range changed {
				changed[g] = g
				f[g] = rng.Float64()
			}
			ev.Refresh(f, changed...)
			fe, le, pl, phi := reference(inst, f)
			mustEqualBits(t, "edge flows", ev.EdgeFlows(), fe)
			mustEqualBits(t, "edge latencies", ev.EdgeLatencies(), le)
			mustEqualBits(t, "path latencies", ev.PathLatencies(), pl)
			mustEqualScalarBits(t, "potential", ev.Potential(), phi)
		})
	}
}

func TestWorkspaceReuseAcrossInstances(t *testing.T) {
	// One workspace serving runs on differently-shaped instances in
	// sequence — the sweep worker's lifecycle — must stay correct after
	// each Reset.
	ws := flow.NewWorkspace()
	rng := &topo.SplitMix{State: 9}
	insts := kernelInstances(t)
	for round := 0; round < 3; round++ {
		for name, inst := range insts {
			ws.Reset()
			ev := flow.NewEvaluator(inst, ws)
			f := randomFlow(inst, rng)
			ev.Eval(f)
			_, _, pl, phi := reference(inst, f)
			mustEqualBits(t, name+" path latencies", ev.PathLatencies(), pl)
			if math.Float64bits(ev.Potential()) != math.Float64bits(phi) {
				t.Fatalf("%s: potential got %v, want %v", name, ev.Potential(), phi)
			}
		}
	}
}

func TestBestResponseIntoMatchesBestResponse(t *testing.T) {
	inst := mixedGrid(t, 4)
	rng := &topo.SplitMix{State: 11}
	b := make(flow.Vector, inst.NumPaths())
	for trial := 0; trial < 20; trial++ {
		f := randomFlow(inst, rng)
		pl := inst.PathLatencies(f)
		want := inst.BestResponse(pl)
		inst.BestResponseInto(pl, b)
		mustEqualBits(t, "best response", b, want)
	}
}

func TestProgramGroupSizes(t *testing.T) {
	inst := mixedGrid(t, 4)
	sizes := inst.Program().GroupSizes()
	total := 0
	for _, n := range sizes {
		total += n
	}
	if total != inst.Graph().NumEdges() {
		t.Fatalf("group sizes cover %d edges, want %d (%v)", total, inst.Graph().NumEdges(), sizes)
	}
	// The mixed grid cycles through every kind incl. three generic
	// wrappers, so each specialized group and the fallback must be hit.
	for _, kind := range []string{"constant", "linear", "polynomial", "monomial", "bpr", "mm1", "pwl", "generic"} {
		if sizes[kind] == 0 {
			t.Fatalf("kind %s missing from program groups: %v", kind, sizes)
		}
	}
}
