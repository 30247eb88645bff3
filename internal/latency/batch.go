package latency

// Program is a compiled batch evaluator over a fixed slice of latency
// functions, indexed by edge — all of them (Compile) or a listed subset
// (CompileEdges). The compile groups the edges by concrete function
// kind (constant, linear, polynomial, monomial, BPR, M/M/1, piecewise
// linear) so the hot loops of the simulation engines evaluate whole edge
// groups with concrete — statically dispatched, inlinable — method calls
// instead of one interface call per edge. Function kinds the compiler does
// not recognise (wrappers like Scaled/Shifted/Sum and user types) fall back
// to the interface, so a Program accepts any []Function.
//
// A Program is numerically transparent: Values and Integrals produce, for
// every edge, exactly the float64 the edge's own Value/Integral method
// produces — the batch loops invoke the same method bodies on concrete
// receivers — so replacing a per-edge interface loop with a Program changes
// no bits. Programs are immutable once compiled and safe for concurrent use.
type Program struct {
	n int

	constIdx []int32
	consts   []Constant

	linIdx []int32
	lins   []Linear

	polyIdx []int32
	polys   []Polynomial

	monoIdx []int32
	monos   []Monomial

	bprIdx []int32
	bprs   []BPR

	mm1Idx []int32
	mm1s   []MM1

	pwlIdx []int32
	pwls   []PiecewiseLinear

	genIdx []int32
	gens   []Function
}

// Compile groups every edge's function by concrete kind and returns the
// batch program over all of fns.
func Compile(fns []Function) *Program {
	all := make([]int32, len(fns))
	for e := range all {
		all[e] = int32(e)
	}
	return CompileEdges(fns, all)
}

// CompileEdges is Compile restricted to the listed edges, which must be
// ascending: the program's calls read and write only those entries of
// their length-len(fns) slices. The flow kernel compiles the edges that lie
// on some strategy path this way, so its passes cost those edges, not the
// whole network.
func CompileEdges(fns []Function, edges []int32) *Program {
	p := &Program{n: len(fns)}
	for _, i := range edges {
		f := fns[i]
		switch g := f.(type) {
		case Constant:
			p.constIdx = append(p.constIdx, i)
			p.consts = append(p.consts, g)
		case Linear:
			p.linIdx = append(p.linIdx, i)
			p.lins = append(p.lins, g)
		case Polynomial:
			p.polyIdx = append(p.polyIdx, i)
			p.polys = append(p.polys, g)
		case Monomial:
			p.monoIdx = append(p.monoIdx, i)
			p.monos = append(p.monos, g)
		case BPR:
			p.bprIdx = append(p.bprIdx, i)
			p.bprs = append(p.bprs, g)
		case MM1:
			p.mm1Idx = append(p.mm1Idx, i)
			p.mm1s = append(p.mm1s, g)
		case PiecewiseLinear:
			p.pwlIdx = append(p.pwlIdx, i)
			p.pwls = append(p.pwls, g)
		default:
			p.genIdx = append(p.genIdx, i)
			p.gens = append(p.gens, f)
		}
	}
	return p
}

// NumEdges returns the number of functions the program was compiled from:
// the length its flow and output slices must have.
func (p *Program) NumEdges() int { return p.n }

// GroupSizes reports how many compiled edges landed in each specialized
// group, keyed by kind name; "generic" counts the interface-dispatch
// fallback.
// Diagnostic: lets tests and docs verify a workload actually compiles to
// batch loops.
func (p *Program) GroupSizes() map[string]int {
	m := map[string]int{}
	add := func(k string, n int) {
		if n > 0 {
			m[k] = n
		}
	}
	add("constant", len(p.consts))
	add("linear", len(p.lins))
	add("polynomial", len(p.polys))
	add("monomial", len(p.monos))
	add("bpr", len(p.bprs))
	add("mm1", len(p.mm1s))
	add("pwl", len(p.pwls))
	add("generic", len(p.gens))
	return m
}

// Values writes out[e] = ℓ_e(flows[e]) for every compiled edge. flows and
// out must have length NumEdges; they may alias distinct slices but not each
// other.
func (p *Program) Values(flows, out []float64) {
	for k, e := range p.constIdx {
		out[e] = p.consts[k].Value(flows[e])
	}
	for k, e := range p.linIdx {
		out[e] = p.lins[k].Value(flows[e])
	}
	for k, e := range p.polyIdx {
		out[e] = p.polys[k].Value(flows[e])
	}
	for k, e := range p.monoIdx {
		out[e] = p.monos[k].Value(flows[e])
	}
	for k, e := range p.bprIdx {
		out[e] = p.bprs[k].Value(flows[e])
	}
	for k, e := range p.mm1Idx {
		out[e] = p.mm1s[k].Value(flows[e])
	}
	for k, e := range p.pwlIdx {
		out[e] = p.pwls[k].Value(flows[e])
	}
	for k, e := range p.genIdx {
		out[e] = p.gens[k].Value(flows[e])
	}
}

// Integrals writes out[e] = ∫₀^{flows[e]} ℓ_e(u) du for every compiled
// edge — the per-edge Beckmann–McGuire–Winsten potential terms. Same shape
// contract as Values.
func (p *Program) Integrals(flows, out []float64) {
	for k, e := range p.constIdx {
		out[e] = p.consts[k].Integral(flows[e])
	}
	for k, e := range p.linIdx {
		out[e] = p.lins[k].Integral(flows[e])
	}
	for k, e := range p.polyIdx {
		out[e] = p.polys[k].Integral(flows[e])
	}
	for k, e := range p.monoIdx {
		out[e] = p.monos[k].Integral(flows[e])
	}
	for k, e := range p.bprIdx {
		out[e] = p.bprs[k].Integral(flows[e])
	}
	for k, e := range p.mm1Idx {
		out[e] = p.mm1s[k].Integral(flows[e])
	}
	for k, e := range p.pwlIdx {
		out[e] = p.pwls[k].Integral(flows[e])
	}
	for k, e := range p.genIdx {
		out[e] = p.gens[k].Integral(flows[e])
	}
}
