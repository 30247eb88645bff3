package flow

import "wardrop/internal/latency"

// This file is the compiled evaluation kernel: the instance's [][]graph.Path
// strategy sets flattened into CSR incidence arrays, a reusable Workspace
// arena, and an Evaluator that owns all per-run scratch and keeps edge
// flows, edge latencies, path latencies and the per-edge potential terms
// consistent with a flow vector — by full re-evaluation or by incremental
// updates that touch only the edges and paths a flow move actually affects.
//
// The kernel is numerically transparent: every quantity it produces is
// bit-for-bit the value the naive reference methods (EdgeFlows,
// EdgeLatencies, PathLatenciesFromEdges, PotentialFromEdges) produce for the
// same flow. Full evaluation preserves the reference accumulation orders;
// incremental updates recompute each touched edge flow by rescanning its
// path list in ascending global-path order — the exact addition sequence of
// the full pass — so a delta-updated Evaluator never drifts from a freshly
// evaluated one. The reference methods stay as the differential-testing
// oracle.
//
// Flow exists only on the edges of the strategy paths, so every per-phase
// pass runs over the live edges — those on at least one path — and costs
// the incidence, not the network: on a 10⁵-edge graph routed over a few
// dozen paths, a few hundred edges. A dead edge's flow is 0 and its latency
// ℓ_e(0) for good; the evaluator writes both once, when it is built, so
// EdgeFlows and EdgeLatencies stay full-length and equal to the reference.
// A workspace keeps the evaluator it built, and the next run on the same
// instance re-arms it instead of building another, so a warm run pays for
// the live edges only.

// incidence is the CSR form of the instance's path sets: a forward
// path→edges layout plus the reverse edge→paths index incremental updates
// need. Indices are int32 — path and edge counts are far below 2³¹ for any
// enumerable instance — halving the index memory against int.
type incidence struct {
	// pathStart[g]..pathStart[g+1] indexes pathEdges, the edge list of
	// global path g (in path order).
	pathStart []int32
	pathEdges []int32
	// edgeStart[e]..edgeStart[e+1] indexes edgePaths, the global indices of
	// the paths through edge e in ascending order.
	edgeStart []int32
	edgePaths []int32
	// pathWork[g] = Σ_{e ∈ path g} deg(e): the reverse-index rescan cost an
	// incremental refresh pays for a change to path g. Precomputed so the
	// incremental-vs-full crossover gate costs O(changed paths), not a walk
	// of their edge lists.
	pathWork []int32
	// live lists, ascending, the edges on at least one path
	// (edgeStart[e+1] > edgeStart[e]): the only edges a pass visits.
	live []int32
}

// dead reports whether no path uses edge e.
func (inc *incidence) dead(e int32) bool { return inc.edgeStart[e+1] == inc.edgeStart[e] }

// liveLatency is the latency half of the compiled kernel. It depends on the
// latency functions, so a derived instance, which shares its parent's
// incidence, compiles its own.
type liveLatency struct {
	// prog is the batch program over the live edges only.
	prog *latency.Program
	// zeroLat[e] = ℓ_e(0) for every edge: the latency a dead edge keeps.
	zeroLat []float64
	// phiEdges lists, ascending, the edges whose terms Potential adds: the
	// live edges, plus any dead edge whose ∫₀⁰ℓ_e is not ±0 (usually none,
	// and then it is the live list itself). Dropping the ±0 terms is exact:
	// the sum starts at +0, under round-to-nearest it can never become −0,
	// and x + (±0) = x for every other x.
	phiEdges []int32
}

func compileLiveLatency(inc *incidence, lats []latency.Function) *liveLatency {
	ll := &liveLatency{
		prog:     latency.CompileEdges(lats, inc.live),
		zeroLat:  make([]float64, len(lats)),
		phiEdges: inc.live,
	}
	deadTerms := false
	for e, f := range lats {
		ll.zeroLat[e] = f.Value(0)
		deadTerms = deadTerms || inc.dead(int32(e)) && f.Integral(0) != 0
	}
	if deadTerms {
		ll.phiEdges = nil
		for e, f := range lats {
			if !inc.dead(int32(e)) || f.Integral(0) != 0 {
				ll.phiEdges = append(ll.phiEdges, int32(e))
			}
		}
	}
	return ll
}

// kernel returns the instance's compiled incidence and live-edge latency
// program, building them on first use (guarded by the instance's once). A
// derived instance starts with its parent's incidence and compiles only the
// latency half.
func (in *Instance) kernel() (*incidence, *liveLatency) {
	in.kernOnce.Do(func() {
		if in.kernInc == nil {
			in.kernInc = in.compileIncidence()
		}
		in.kernLat = compileLiveLatency(in.kernInc, in.latencies)
	})
	return in.kernInc, in.kernLat
}

// Program returns the batch latency program over every edge (shared,
// immutable, built on first call). The evaluator's passes do not use it:
// they run a program over the live edges only.
func (in *Instance) Program() *latency.Program {
	in.progOnce.Do(func() { in.prog = latency.Compile(in.latencies) })
	return in.prog
}

func (in *Instance) compileIncidence() *incidence {
	nE := in.g.NumEdges()
	inc := &incidence{
		pathStart: make([]int32, in.totalPaths+1),
		edgeStart: make([]int32, nE+1),
	}
	total := 0
	g := 0
	for i := range in.paths {
		for _, p := range in.paths[i] {
			total += len(p.Edges)
			g++
			inc.pathStart[g] = int32(total)
		}
	}
	inc.pathEdges = make([]int32, total)
	inc.edgePaths = make([]int32, total)

	// Forward CSR plus per-edge degree counts.
	deg := make([]int32, nE)
	k := 0
	for i := range in.paths {
		for _, p := range in.paths[i] {
			for _, e := range p.Edges {
				inc.pathEdges[k] = int32(e)
				deg[e]++
				k++
			}
		}
	}
	// Reverse CSR by counting sort; filling in ascending global path order
	// leaves every edge's path list ascending — the invariant the
	// incremental rescan relies on for reference-identical addition order.
	for e := 0; e < nE; e++ {
		inc.edgeStart[e+1] = inc.edgeStart[e] + deg[e]
	}
	next := make([]int32, nE)
	copy(next, inc.edgeStart[:nE])
	g = 0
	for i := range in.paths {
		for _, p := range in.paths[i] {
			for _, e := range p.Edges {
				inc.edgePaths[next[e]] = int32(g)
				next[e]++
			}
			g++
		}
	}
	inc.pathWork = make([]int32, in.totalPaths)
	for g := range inc.pathWork {
		w := int32(0)
		for _, e := range inc.pathEdges[inc.pathStart[g]:inc.pathStart[g+1]] {
			w += deg[e]
		}
		inc.pathWork[g] = w
	}
	for e, d := range deg {
		if d > 0 {
			inc.live = append(inc.live, int32(e))
		}
	}
	return inc
}

// Workspace is a reusable arena of float64 scratch buffers. A simulation
// run carves all its scratch (edge/path buffers, rate-matrix rows,
// integrator stages) from one workspace; Reset rewinds the arena so the
// next run — on the same or a different instance — reuses the same backing
// memory, growing a slab only when a run needs more than any previous one.
// The zero value and nil are both ready to use (nil never reuses, it just
// allocates), so workspace plumbing is always optional.
//
// A workspace serializes one run at a time: it is not safe for concurrent
// use, and buffers handed out before a Reset are invalidated by it — and so
// is an evaluator built on it, which NewEvaluator may hand to the next run.
// Pools (the sweep engine's workers) therefore keep one workspace per
// worker.
//
// The workspace keeps the evaluator NewEvaluator last built on it, with its
// buffers in evalSlabs consecutive slabs starting at keptAt, and with it
// the instance the evaluator is bound to. A later NewEvaluator for the same
// instance at that cursor re-arms it instead of building another. A Floats
// call that reaches one of its slabs drops it first, so no other caller
// ever shares its buffers.
type Workspace struct {
	slabs  [][]float64
	next   int
	kept   *Evaluator
	keptAt int
}

// evalSlabs is the number of slabs an evaluator's buffers take.
const evalSlabs = 4

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset rewinds the arena: every slice previously returned by Floats is up
// for reuse and must no longer be referenced by the caller.
func (w *Workspace) Reset() {
	if w != nil {
		w.next = 0
	}
}

// Floats returns a length-n scratch slice with unspecified contents. A nil
// workspace allocates fresh memory; otherwise the slice reuses (and grows
// when needed) the arena slab at the current cursor.
func (w *Workspace) Floats(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	if w.kept != nil && w.next >= w.keptAt && w.next < w.keptAt+evalSlabs {
		w.kept = nil
	}
	if w.next == len(w.slabs) {
		w.slabs = append(w.slabs, make([]float64, n))
	} else if cap(w.slabs[w.next]) < n {
		w.slabs[w.next] = make([]float64, n)
	}
	s := w.slabs[w.next][:n]
	w.next++
	return s
}

// Evaluator binds an instance's compiled kernel to a set of scratch buffers
// and keeps them consistent with a flow vector. Eval performs the full
// pass; ApplyDelta and Refresh update incrementally after sparse flow
// moves. All returned slices are views into the evaluator's buffers, valid
// until the next Eval/ApplyDelta/Refresh call.
//
// An evaluator is single-goroutine state; create one per concurrent run
// (they share the instance's immutable compiled incidence and latency
// program, so construction is cheap once the instance is warm, and free of
// per-edge work when a workspace re-arms the one it kept).
type Evaluator struct {
	inst *Instance
	inc  *incidence
	lat  *liveLatency

	edgeFlow []float64
	edgeLat  []float64
	edgeInt  []float64
	pathLat  []float64

	// Incremental bookkeeping: epoch marks de-duplicate touched edges and
	// dependent paths without clearing arrays between updates, or between
	// the runs that re-arm a kept evaluator.
	edgeMark  []int32
	pathMark  []int32
	epoch     int32
	touched   []int32
	evaluated bool
	// potValid tracks whether edgeInt matches edgeFlow; Potential
	// materializes the per-edge integral terms lazily and Refresh keeps
	// them current once materialized, so runs that never ask for the
	// potential never pay for it.
	potValid bool
}

// NewEvaluator builds an evaluator for the instance, carving its buffers
// from ws (nil allocates privately). The dead edges' entries are written
// here, once, over whatever the workspace slabs held: flow 0, latency
// ℓ_e(0) and, for the dead edges Potential sums, ∫₀⁰ℓ_e.
//
// The workspace keeps the evaluator. When it already keeps one for this
// instance and the cursor is at that evaluator's slabs — a run on the same
// instance after a Reset — NewEvaluator re-arms and returns it instead: not
// evaluated, the potential stale, the live edges back at flow 0 and latency
// ℓ_e(0). Its dead entries still hold what the build wrote, since no pass
// writes a dead entry, so the re-armed evaluator is in the state a build
// leaves at O(live edges) cost and without allocating.
func NewEvaluator(inst *Instance, ws *Workspace) *Evaluator {
	if ev := ws.rearm(inst); ev != nil {
		return ev
	}
	inc, lat := inst.kernel()
	nE := inst.g.NumEdges()
	nP := inst.totalPaths
	at := 0
	if ws != nil {
		at = ws.next
	}
	ev := &Evaluator{
		inst:     inst,
		inc:      inc,
		lat:      lat,
		edgeFlow: ws.Floats(nE),
		edgeLat:  ws.Floats(nE),
		edgeInt:  ws.Floats(nE),
		pathLat:  ws.Floats(nP),
		edgeMark: make([]int32, nE),
		pathMark: make([]int32, nP),
		touched:  make([]int32, 0, len(inc.live)),
	}
	clear(ev.edgeFlow)
	copy(ev.edgeLat, lat.zeroLat)
	for _, e := range lat.phiEdges {
		if inc.dead(e) {
			ev.edgeInt[e] = inst.latencies[e].Integral(0)
		}
	}
	if ws != nil {
		ws.kept, ws.keptAt = ev, at
	}
	return ev
}

// rearm returns the kept evaluator ready for a new run on inst, with the
// cursor moved past its slabs, or nil when there is none to re-arm: no
// workspace, no kept evaluator, another instance, or a cursor elsewhere.
func (w *Workspace) rearm(inst *Instance) *Evaluator {
	if w == nil || w.kept == nil || w.kept.inst != inst || w.next != w.keptAt {
		return nil
	}
	w.next += evalSlabs
	ev := w.kept
	for _, e := range ev.inc.live {
		ev.edgeFlow[e] = 0
		ev.edgeLat[e] = ev.lat.zeroLat[e]
	}
	ev.touched = ev.touched[:0]
	ev.evaluated = false
	ev.potValid = false
	return ev
}

// SetParallelism does nothing: every pass is serial.
//
// Deprecated: the evaluator has one pass and no worker count to set.
func (ev *Evaluator) SetParallelism(workers int) {}

// Instance returns the bound instance.
func (ev *Evaluator) Instance() *Instance { return ev.inst }

// Eval fully re-evaluates edge flows, edge latencies and path latencies
// from f.
func (ev *Evaluator) Eval(f Vector) {
	pathEdges := ev.inc.pathEdges
	pathStart := ev.inc.pathStart
	edgeFlow := ev.edgeFlow
	for _, e := range ev.inc.live {
		edgeFlow[e] = 0
	}
	// Ascending global path order with zero-flow paths skipped — the
	// reference EdgeFlows accumulation sequence.
	for g := range f {
		fp := f[g]
		if fp == 0 {
			continue
		}
		for _, e := range pathEdges[pathStart[g]:pathStart[g+1]] {
			edgeFlow[e] += fp
		}
	}
	ev.lat.prog.Values(edgeFlow, ev.edgeLat)
	edgeLat := ev.edgeLat
	pathLat := ev.pathLat
	for g := range pathLat {
		sum := 0.0
		for _, e := range pathEdges[pathStart[g]:pathStart[g+1]] {
			sum += edgeLat[e]
		}
		pathLat[g] = sum
	}
	ev.evaluated = true
	ev.potValid = false
}

// ApplyDelta moves amount flow from global path p to global path q
// (mutating f) and incrementally re-evaluates: only the edges of p and q
// and the paths sharing those edges are recomputed. Requires a prior Eval
// of f.
func (ev *Evaluator) ApplyDelta(f Vector, p, q int, amount float64) {
	f[p] -= amount
	f[q] += amount
	ev.Refresh(f, p, q)
}

// Refresh incrementally re-evaluates after the caller changed f on exactly
// the given global paths (f is already updated). Requires that every other
// entry of f is unchanged since the evaluator last saw it, and a prior
// Eval. Refresh gates itself by estimated cost: when the rescan the change
// implies (precomputed per-path as pathWork) approaches the cost of a full
// pass, it falls back to Eval — which batches latency evaluation, visits
// only the live edges and produces identical bits — so a move through a
// bottleneck edge shared by most paths never does more work than a full
// evaluation.
func (ev *Evaluator) Refresh(f Vector, changed ...int) {
	if !ev.evaluated {
		ev.Eval(f)
		return
	}
	inc := ev.inc
	// pathWork prices the reverse-index rescan; the dependent-path re-sums
	// and the epoch marking cost roughly that much again, while the batched
	// full pass streams linearly. The 3x factor makes the incremental path
	// engage only where it clearly wins (changes touching under about a
	// third of the incidence) — on dense overlapping path sets like the
	// grid, a two-path move reaches most of the incidence and the full pass
	// is faster.
	work := int32(0)
	limit := int32(len(inc.pathEdges))
	for _, g := range changed {
		work += inc.pathWork[g]
		if work >= limit/3 {
			ev.fullRefresh(f, changed)
			return
		}
	}
	ev.epoch++
	// Epoch wrap (int32 increment past MaxInt32 goes negative): reset the
	// marks to 0 and restart at 1, so live epochs are always positive and
	// can never collide with a stale mark.
	if ev.epoch <= 0 {
		for i := range ev.edgeMark {
			ev.edgeMark[i] = 0
		}
		for i := range ev.pathMark {
			ev.pathMark[i] = 0
		}
		ev.epoch = 1
	}
	ev.touched = ev.touched[:0]
	for _, g := range changed {
		for _, e := range inc.pathEdges[inc.pathStart[g]:inc.pathStart[g+1]] {
			if ev.edgeMark[e] != ev.epoch {
				ev.edgeMark[e] = ev.epoch
				ev.touched = append(ev.touched, e)
			}
		}
	}
	lats := ev.inst.latencies
	for _, e := range ev.touched {
		// Rescan the edge's path list in ascending order, skipping zero
		// flows: the exact addition sequence of the reference full pass, so
		// the incremental value is bitwise the full-evaluation value.
		sum := 0.0
		for _, g := range inc.edgePaths[inc.edgeStart[e]:inc.edgeStart[e+1]] {
			if fp := f[g]; fp != 0 {
				sum += fp
			}
		}
		ev.edgeFlow[e] = sum
		ev.edgeLat[e] = lats[e].Value(sum)
		if ev.potValid {
			ev.edgeInt[e] = lats[e].Integral(sum)
		}
	}
	// Re-sum every path through a touched edge (in path-edge order, as the
	// full pass does).
	for _, e := range ev.touched {
		for _, g := range inc.edgePaths[inc.edgeStart[e]:inc.edgeStart[e+1]] {
			if ev.pathMark[g] == ev.epoch {
				continue
			}
			ev.pathMark[g] = ev.epoch
			sum := 0.0
			for _, ee := range inc.pathEdges[inc.pathStart[g]:inc.pathStart[g+1]] {
				sum += ev.edgeLat[ee]
			}
			ev.pathLat[g] = sum
		}
	}
}

// fullRefresh is Refresh's dense fallback: a batched full pass, plus a
// repair of the potential terms when they were live. Only the changed
// paths' edges carry new flows — every other edge recomputes to identical
// bits (same nonzero flows, same ascending addition order) — so patching
// just those integrals leaves edgeInt exactly as a from-scratch
// materialization would, and the next Potential call is a plain sum
// instead of a full Integrals pass. The patch uses the same per-edge
// Integral calls the incremental path uses, which match the batched
// program bit-for-bit (the invariant the incremental mode is built on).
func (ev *Evaluator) fullRefresh(f Vector, changed []int) {
	hadPot := ev.potValid
	ev.Eval(f)
	if !hadPot {
		return
	}
	inc := ev.inc
	lats := ev.inst.latencies
	for _, g := range changed {
		for _, e := range inc.pathEdges[inc.pathStart[g]:inc.pathStart[g+1]] {
			ev.edgeInt[e] = lats[e].Integral(ev.edgeFlow[e])
		}
	}
	ev.potValid = true
}

// EdgeFlows returns the current per-edge flows (a live view).
func (ev *Evaluator) EdgeFlows() []float64 { return ev.edgeFlow }

// EdgeLatencies returns the current per-edge latencies (a live view).
func (ev *Evaluator) EdgeLatencies() []float64 { return ev.edgeLat }

// PathLatencies returns the current per-path latencies (a live view).
func (ev *Evaluator) PathLatencies() []float64 { return ev.pathLat }

// Potential returns Φ(f) for the last evaluated flow: the live edges'
// integral terms (materialized lazily on first use, then kept current by
// Refresh) summed in ascending edge order with any dead edge's nonzero
// constant term in its place — the reference PotentialFromEdges summation
// sequence less its ±0 terms, which cannot change the sum (see phiEdges).
func (ev *Evaluator) Potential() float64 {
	if !ev.potValid {
		ev.lat.prog.Integrals(ev.edgeFlow, ev.edgeInt)
		ev.potValid = true
	}
	phi := 0.0
	if len(ev.lat.phiEdges) == len(ev.edgeInt) {
		// Every edge has a term: the same sequence without the index
		// gather, which costs the sparse-move delta/links benchmark
		// (a two-edge refresh, then this sum) about 60%.
		for _, v := range ev.edgeInt {
			phi += v
		}
		return phi
	}
	for _, e := range ev.lat.phiEdges {
		phi += ev.edgeInt[e]
	}
	return phi
}

// BestResponseInto writes the all-or-nothing best response to pathLat into
// b (the reference BestResponse without its allocation): each commodity's
// demand routes entirely onto its minimum-latency path, ties towards the
// lowest global index.
func (in *Instance) BestResponseInto(pathLat []float64, b Vector) {
	for g := range b {
		b[g] = 0
	}
	for i := range in.commodities {
		idx, _ := in.MinLatency(i, pathLat)
		b[idx] = in.commodities[i].Demand
	}
}
