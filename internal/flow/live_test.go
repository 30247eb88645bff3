package flow_test

// Differential tests for the live-edge passes: every per-phase pass visits
// only the edges some strategy path uses, and the evaluator writes the
// dead edges' entries once. On instances with dead edges — including
// dead edges whose latency or potential term at zero flow is nonzero or
// −0, a workspace dirtied by another instance, and a derived instance —
// Eval, Refresh (incremental and fallback) and Potential must still match
// the naive reference bit for bit over the full edge vectors, on one
// evaluator and on several running at once over the shared instance.

import (
	"fmt"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
	"wardrop/internal/topo"
)

// offsetArea is a user-defined latency the batch program cannot
// specialize, with ℓ(0) = 1 and ∫₀⁰ℓ = 1/3 — a constant its potential term
// carries even on an edge no path uses.
type offsetArea struct{}

func (offsetArea) Value(x float64) float64    { return 1 + x }
func (offsetArea) Derivative(float64) float64 { return 1 }
func (offsetArea) Integral(x float64) float64 { return 1.0/3 + x + x*x/2 }
func (offsetArea) SlopeBound() float64        { return 1 }
func (offsetArea) String() string             { return "offset-area" }

// deadLatencies are the functions the reverse edges of deadGrid cycle
// through: the nonzero-at-zero user function, a negative constant (whose
// ∫₀⁰ is −0) and ordinary kinds.
func deadLatencies() []latency.Function {
	return []latency.Function{
		offsetArea{},
		latency.Constant{C: -0.5},
		latency.Linear{Slope: 2, Offset: 0.3},
		latency.Monomial{Coef: 1, Degree: 2},
	}
}

// gridNodes adds an n×n lattice of nodes to g.
func gridNodes(g *graph.Graph, n int) [][]graph.NodeID {
	ids := make([][]graph.NodeID, n)
	for r := range ids {
		ids[r] = make([]graph.NodeID, n)
		for c := range ids[r] {
			ids[r][c] = g.MustAddNode(fmt.Sprintf("v%d_%d", r, c))
		}
	}
	return ids
}

// deadGrid builds an n×n grid whose forward (right and down) edges cycle
// through every latency kind and, beside each, a reverse (left or up) edge
// carrying deadLatencies in turn. Paths of at most 2(n−1) edges are the
// monotone lattice paths, so every reverse edge is dead, and dead edges
// interleave with live ones in edge order.
func deadGrid(t testing.TB, n int) *flow.Instance {
	t.Helper()
	g := graph.New()
	ids := gridNodes(g, n)
	kinds, dead := allKinds(64), deadLatencies()
	var lats []latency.Function
	link := func(a, b graph.NodeID) {
		g.MustAddEdge(a, b)
		lats = append(lats, kinds[len(lats)/2%len(kinds)])
		g.MustAddEdge(b, a)
		lats = append(lats, dead[len(lats)/2%len(dead)])
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				link(ids[r][c], ids[r][c+1])
			}
			if r+1 < n {
				link(ids[r][c], ids[r+1][c])
			}
		}
	}
	inst, err := flow.NewInstance(g, lats,
		[]flow.Commodity{{Name: "c0", Source: ids[0][0], Sink: ids[n-1][n-1], Demand: 1}},
		flow.WithMaxPathLen(2*(n-1)))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// kShortestGrid is the mixed-kind n×n grid routed over its k cheapest
// paths only, leaving most edges on no path.
func kShortestGrid(t testing.TB, n, k int) *flow.Instance {
	t.Helper()
	g := graph.New()
	ids := gridNodes(g, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				g.MustAddEdge(ids[r][c], ids[r][c+1])
			}
			if r+1 < n {
				g.MustAddEdge(ids[r][c], ids[r+1][c])
			}
		}
	}
	inst, err := flow.NewInstance(g, allKinds(g.NumEdges()),
		[]flow.Commodity{
			{Name: "c0", Source: ids[0][0], Sink: ids[n-1][n-1], Demand: 0.7},
			{Name: "c1", Source: ids[0][1], Sink: ids[n-1][n-2], Demand: 0.3},
		},
		flow.WithKShortestPaths(k))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// derivedDeadGrid derives a 4×4 deadGrid with every function replaced
// (the reverse edges' included) and its demand scaled.
func derivedDeadGrid(t testing.TB) *flow.Instance {
	t.Helper()
	base := deadGrid(t, 4)
	lats := make([]latency.Function, base.Graph().NumEdges())
	for e := range lats {
		lats[e] = latency.Scaled{F: base.Latency(graph.EdgeID(e)), Factor: 1.5}
	}
	lats[1] = latency.Sum{A: offsetArea{}, B: latency.Constant{C: -0.25}}
	d, err := base.Derive(lats, []float64{0.8})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// liveEdgeInstances is the dead-edge zoo; each instance is checked to have
// at least one dead edge.
func liveEdgeInstances(t testing.TB) map[string]*flow.Instance {
	t.Helper()
	sparse, err := topo.SparseRandom(10000, 4, 4, 6, 0xabc)
	if err != nil {
		t.Fatal(err)
	}
	insts := map[string]*flow.Instance{
		"grid/maxlen-reverse": deadGrid(t, 4),
		"grid/kshortest":      kShortestGrid(t, 5, 3),
		"sparse-random/10k":   sparse,
		"derived":             derivedDeadGrid(t),
	}
	for name, inst := range insts {
		if deadEdges(inst) == 0 {
			t.Fatalf("%s: no dead edge", name)
		}
	}
	return insts
}

// deadEdges counts the edges no path of inst uses.
func deadEdges(inst *flow.Instance) int {
	used := make([]bool, inst.Graph().NumEdges())
	for g := 0; g < inst.NumPaths(); g++ {
		for _, e := range inst.Path(g).Edges {
			used[e] = true
		}
	}
	n := 0
	for _, u := range used {
		if !u {
			n++
		}
	}
	return n
}

// mustMatchReference compares every evaluator view, full-length, and the
// potential with the reference pipeline on f.
func mustMatchReference(t *testing.T, what string, ev *flow.Evaluator, inst *flow.Instance, f flow.Vector) {
	t.Helper()
	fe, le, pl, phi := reference(inst, f)
	mustEqualBits(t, what+": edge flows", ev.EdgeFlows(), fe)
	mustEqualBits(t, what+": edge latencies", ev.EdgeLatencies(), le)
	mustEqualBits(t, what+": path latencies", ev.PathLatencies(), pl)
	mustEqualScalarBits(t, what+": potential", ev.Potential(), phi)
}

// onWorkers runs body once per worker, all at once: each worker is a
// parallel subtest that builds its own evaluators and workspaces over the
// test's shared instances, the way a sweep's workers run tasks on one
// cached instance. A lone worker runs body in t itself.
func onWorkers(t *testing.T, workers int, body func(t *testing.T)) {
	if workers == 1 {
		body(t)
		return
	}
	for w := range workers {
		t.Run(fmt.Sprint("worker", w), func(t *testing.T) {
			t.Parallel()
			body(t)
		})
	}
}

func TestLiveEdgePassesMatchReference(t *testing.T) {
	for name, inst := range liveEdgeInstances(t) {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				onWorkers(t, workers, func(t *testing.T) {
					rng := &topo.SplitMix{State: 17}
					ev := flow.NewEvaluator(inst, nil)
					for trial := 0; trial < 5; trial++ {
						f := randomFlow(inst, rng)
						ev.Eval(f)
						mustMatchReference(t, fmt.Sprintf("eval %d", trial), ev, inst, f)
					}

					// Incremental: sparse within-commodity moves, some draining
					// a path to exactly zero; Potential is live throughout, so
					// Refresh keeps the integral terms current as well.
					f := inst.UniformFlow()
					ev.Eval(f)
					for step := 0; step < 60; step++ {
						i := int(rng.Next() % uint64(inst.NumCommodities()))
						lo, hi := inst.CommodityRange(i)
						p := lo + int(rng.Next()%uint64(hi-lo))
						q := lo + int(rng.Next()%uint64(hi-lo))
						amount := rng.Float64() * f[p]
						if rng.Next()%8 == 0 {
							amount = f[p]
						}
						ev.ApplyDelta(f, p, q, amount)
						mustMatchReference(t, fmt.Sprintf("delta %d", step), ev, inst, f)
					}

					// Fallback: every path changes at once.
					changed := make([]int, inst.NumPaths())
					for g := range changed {
						changed[g] = g
						f[g] = rng.Float64()
					}
					ev.Refresh(f, changed...)
					mustMatchReference(t, "fallback", ev, inst, f)
				})
			})
		}
	}
}

// TestLiveEdgeStaleWorkspace builds each evaluator on a workspace whose
// slabs a dense instance (every edge live, every flow, latency and
// potential term nonzero) has just used: a dead entry left unwritten
// would show that instance's values.
func TestLiveEdgeStaleWorkspace(t *testing.T) {
	dense := mixedGrid(t, 6)
	for name, inst := range liveEdgeInstances(t) {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				onWorkers(t, workers, func(t *testing.T) {
					ws := flow.NewWorkspace()
					prev := flow.NewEvaluator(dense, ws)
					prev.Eval(dense.UniformFlow())
					prev.Potential()

					ws.Reset()
					ev := flow.NewEvaluator(inst, ws)
					rng := &topo.SplitMix{State: 23}
					f := randomFlow(inst, rng)
					ev.Eval(f)
					mustMatchReference(t, "first eval", ev, inst, f)
					g := randomFlow(inst, rng)
					changed := make([]int, 0, len(g))
					for p := range g {
						if g[p] != f[p] {
							changed = append(changed, p)
						}
					}
					ev.Refresh(g, changed...)
					mustMatchReference(t, "refresh", ev, inst, g)
				})
			})
		}
	}
}

// TestLiveEdgeDeadTermsOrder checks the potential's dead-edge terms on
// their own: with every path at zero flow, Φ is the sum of the constant
// terms of the edges whose ∫₀⁰ℓ_e is nonzero, in edge order, and the
// negative constants' −0 terms must not turn it into −0.
func TestLiveEdgeDeadTermsOrder(t *testing.T) {
	for _, inst := range []*flow.Instance{deadGrid(t, 3), derivedDeadGrid(t)} {
		ev := flow.NewEvaluator(inst, nil)
		f := make(flow.Vector, inst.NumPaths())
		ev.Eval(f)
		mustMatchReference(t, "zero flow", ev, inst, f)
		if math.Float64bits(ev.Potential()) == math.Float64bits(0) {
			t.Fatal("dead edges' nonzero potential terms were dropped")
		}
	}
}

// TestLiveEdgeRearmedEvaluator covers the evaluator a workspace keeps: after
// a Reset, NewEvaluator on the same instance returns the kept evaluator, in
// the state a build leaves (dead entries included) and without
// allocating, and every pass on it still matches the reference. Another
// instance, a cursor away from the kept evaluator's slabs, a nil workspace
// or a Floats call that reached those slabs each get a new evaluator.
func TestLiveEdgeRearmedEvaluator(t *testing.T) {
	for name, inst := range liveEdgeInstances(t) {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				onWorkers(t, workers, func(t *testing.T) {
					rng := &topo.SplitMix{State: 31}
					ws := flow.NewWorkspace()
					ev := flow.NewEvaluator(inst, ws)
					// dirty runs every kind of pass on ev and returns the flow
					// it was left on.
					dirty := func(ev *flow.Evaluator) flow.Vector {
						f, g := randomFlow(inst, rng), randomFlow(inst, rng)
						ev.Eval(f)
						ev.Potential()
						changed := make([]int, 0, len(g))
						for p := range g {
							if g[p] != f[p] {
								changed = append(changed, p)
							}
						}
						ev.Refresh(g, changed...)
						mustMatchReference(t, "dirty", ev, inst, g)
						return g
					}
					dirty(ev)

					ws.Reset()
					re := flow.NewEvaluator(inst, ws)
					if re != ev {
						t.Fatal("a run on the same instance did not re-arm the kept evaluator")
					}
					built := flow.NewEvaluator(inst, nil)
					mustEqualBits(t, "re-armed edge flows", re.EdgeFlows(), built.EdgeFlows())
					mustEqualBits(t, "re-armed edge latencies", re.EdgeLatencies(), built.EdgeLatencies())
					h := randomFlow(inst, rng)
					re.Refresh(h, 0)
					mustMatchReference(t, "first refresh after re-arm", re, inst, h)
					g := dirty(re)

					// Without a Reset the kept evaluator is still in use.
					if next := flow.NewEvaluator(inst, ws); next == re {
						t.Fatal("the kept evaluator was handed out twice in one run")
					}
					mustMatchReference(t, "kept evaluator after a second build", re, inst, g)

					if flow.NewEvaluator(inst, nil) == flow.NewEvaluator(inst, nil) {
						t.Fatal("a nil workspace returned one evaluator twice")
					}

					// A caller that took the kept evaluator's slabs may have
					// overwritten its dead entries: the next run must build.
					ws.Reset()
					last := flow.NewEvaluator(inst, ws)
					ws.Reset()
					for _, n := range []int{len(last.EdgeFlows()), len(last.EdgeLatencies())} {
						buf := ws.Floats(n)
						for i := range buf {
							buf[i] = math.NaN()
						}
					}
					ws.Reset()
					if rebuilt := flow.NewEvaluator(inst, ws); rebuilt == last {
						t.Fatal("an evaluator whose slabs were handed out was re-armed")
					} else {
						rebuilt.Eval(h)
						mustMatchReference(t, "rebuilt over handed-out slabs", rebuilt, inst, h)
					}

					// AllocsPerRun counts every goroutine's allocations, so only
					// a lone worker measures.
					if testing.Short() || workers > 1 {
						return
					}
					if n := testing.AllocsPerRun(10, func() {
						ws.Reset()
						flow.NewEvaluator(inst, ws)
					}); n != 0 {
						t.Fatalf("re-arming allocates %g times", n)
					}
				})
			})
		}
	}
}

// TestLiveEdgeRearmAcrossSiblings alternates runs on an instance and on a
// derived sibling, which shares its incidence but not its latency
// functions, on one workspace: each switch builds a new evaluator over the
// other's slabs, and each must match the reference.
func TestLiveEdgeRearmAcrossSiblings(t *testing.T) {
	base := deadGrid(t, 4)
	lats := make([]latency.Function, base.Graph().NumEdges())
	for e := range lats {
		lats[e] = latency.Scaled{F: base.Latency(graph.EdgeID(e)), Factor: 1.5}
	}
	sibling, err := base.Derive(lats, []float64{0.8})
	if err != nil {
		t.Fatal(err)
	}
	rng := &topo.SplitMix{State: 37}
	ws := flow.NewWorkspace()
	var prev *flow.Evaluator
	for round := 0; round < 6; round++ {
		inst := base
		if round%2 == 1 {
			inst = sibling
		}
		ws.Reset()
		ev := flow.NewEvaluator(inst, ws)
		if ev == prev {
			t.Fatalf("round %d: the sibling's evaluator was re-armed", round)
		}
		prev = ev
		f := randomFlow(inst, rng)
		ev.Eval(f)
		mustMatchReference(t, fmt.Sprintf("round %d", round), ev, inst, f)
	}
}
