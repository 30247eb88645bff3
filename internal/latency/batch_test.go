package latency

import (
	"math"
	"testing"
)

// TestProgramMatchesInterface pins the batch program to the per-edge
// interface path bit-for-bit for every builtin kind and the generic
// fallback, across a grid of loads including the boundaries.
func TestProgramMatchesInterface(t *testing.T) {
	poly, err := NewPolynomial(0.2, 0, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	bpr, err := NewBPR(1, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	mm1, err := NewMM1(2)
	if err != nil {
		t.Fatal(err)
	}
	pwl, err := NewPiecewiseLinear([]float64{0, 0.5, 1}, []float64{0, 0.1, 1})
	if err != nil {
		t.Fatal(err)
	}
	fns := []Function{
		Constant{C: 0.3},
		Linear{Slope: 2, Offset: 0.1},
		poly,
		Monomial{Coef: 1.2, Degree: 4},
		bpr,
		mm1,
		pwl,
		Kink(3),
		Scaled{F: Linear{Slope: 1}, Factor: 2}, // generic fallback
		Shifted{F: Monomial{Coef: 1, Degree: 2}, Offset: 0.5},
		Sum{A: Constant{C: 1}, B: Linear{Slope: 1}},
	}
	prog := Compile(fns)
	if prog.NumEdges() != len(fns) {
		t.Fatalf("NumEdges = %d, want %d", prog.NumEdges(), len(fns))
	}
	flows := make([]float64, len(fns))
	values := make([]float64, len(fns))
	integrals := make([]float64, len(fns))
	for step := 0; step <= 64; step++ {
		x := float64(step) / 64
		for e := range flows {
			flows[e] = x
		}
		prog.Values(flows, values)
		prog.Integrals(flows, integrals)
		for e, f := range fns {
			if got, want := values[e], f.Value(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("edge %d (%s): Value(%g) = %v, want %v", e, f, x, got, want)
			}
			if got, want := integrals[e], f.Integral(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("edge %d (%s): Integral(%g) = %v, want %v", e, f, x, got, want)
			}
		}
	}
	sizes := prog.GroupSizes()
	if sizes["generic"] != 3 {
		t.Fatalf("generic group = %d, want 3 (%v)", sizes["generic"], sizes)
	}
}

// TestProgramRangeDecomposition pins ValuesRange/IntegralsRange to the
// whole-slice methods: any partition of [0, n) into ranges — including
// empty, single-edge and unbalanced cuts — must fill the output with
// exactly the bits Values/Integrals produce, and must never write outside
// its range. This is the contract the parallel evaluator's disjoint edge
// chunks rely on.
func TestProgramRangeDecomposition(t *testing.T) {
	poly, err := NewPolynomial(0.2, 0, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	bpr, err := NewBPR(1, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]Function, 37)
	kinds := []Function{
		Constant{C: 0.3},
		Linear{Slope: 2, Offset: 0.1},
		poly,
		Monomial{Coef: 1.2, Degree: 4},
		bpr,
		Kink(3),
		Scaled{F: Linear{Slope: 1}, Factor: 2},
	}
	for i := range fns {
		fns[i] = kinds[i%len(kinds)]
	}
	prog := Compile(fns)
	n := int32(len(fns))
	flows := make([]float64, n)
	for e := range flows {
		flows[e] = float64(e) / float64(n)
	}
	wantV := make([]float64, n)
	wantI := make([]float64, n)
	prog.Values(flows, wantV)
	prog.Integrals(flows, wantI)
	cuts := [][]int32{
		{0, n},
		{0, 1, n},
		{0, n / 3, n / 3, 2*n/3 + 1, n},
		{0, 5, 6, 7, 8, 9, 10, n - 1, n},
	}
	for _, bounds := range cuts {
		gotV := make([]float64, n)
		gotI := make([]float64, n)
		sentinel := math.Inf(-1)
		for e := range gotV {
			gotV[e] = sentinel
			gotI[e] = sentinel
		}
		for c := 0; c+1 < len(bounds); c++ {
			prog.ValuesRange(flows, gotV, bounds[c], bounds[c+1])
			prog.IntegralsRange(flows, gotI, bounds[c], bounds[c+1])
		}
		for e := range gotV {
			if math.Float64bits(gotV[e]) != math.Float64bits(wantV[e]) {
				t.Fatalf("cuts %v: ValuesRange[%d] = %v, want %v", bounds, e, gotV[e], wantV[e])
			}
			if math.Float64bits(gotI[e]) != math.Float64bits(wantI[e]) {
				t.Fatalf("cuts %v: IntegralsRange[%d] = %v, want %v", bounds, e, gotI[e], wantI[e])
			}
		}
		// A range must leave edges outside it untouched.
		outside := make([]float64, n)
		for e := range outside {
			outside[e] = sentinel
		}
		prog.ValuesRange(flows, outside, 3, 9)
		for e := int32(0); e < n; e++ {
			if (e < 3 || e >= 9) && outside[e] != sentinel {
				t.Fatalf("ValuesRange(3,9) wrote outside its range at edge %d", e)
			}
		}
	}
}

// TestCompileEdgesSubset pins the subset compile the flow kernel's
// live-edge program uses: Values, Integrals and their range forms write
// exactly the listed edges, with the bits the whole program writes there,
// and leave every other entry alone.
func TestCompileEdgesSubset(t *testing.T) {
	bpr, err := NewBPR(1, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Function{
		Constant{C: 0.3},
		Linear{Slope: 2, Offset: 0.1},
		Monomial{Coef: 1.2, Degree: 4},
		bpr,
		Kink(3),
		Scaled{F: Linear{Slope: 1}, Factor: 2},
	}
	fns := make([]Function, 29)
	for i := range fns {
		fns[i] = kinds[i%len(kinds)]
	}
	edges := []int32{0, 2, 3, 7, 8, 13, 21, 27, 28}
	full, sub := Compile(fns), CompileEdges(fns, edges)
	if sub.NumEdges() != len(fns) {
		t.Fatalf("NumEdges = %d, want %d", sub.NumEdges(), len(fns))
	}
	total := 0
	for _, n := range sub.GroupSizes() {
		total += n
	}
	if total != len(edges) {
		t.Fatalf("group sizes cover %d edges, want %d", total, len(edges))
	}
	flows := make([]float64, len(fns))
	for e := range flows {
		flows[e] = float64(e) / float64(len(fns))
	}
	wantV := make([]float64, len(fns))
	wantI := make([]float64, len(fns))
	full.Values(flows, wantV)
	full.Integrals(flows, wantI)
	listed := map[int32]bool{}
	for _, e := range edges {
		listed[e] = true
	}
	sentinel := math.Inf(-1)
	fresh := func() []float64 {
		s := make([]float64, len(fns))
		for e := range s {
			s[e] = sentinel
		}
		return s
	}
	check := func(what string, got, want []float64) {
		t.Helper()
		for e := range got {
			w := sentinel
			if listed[int32(e)] {
				w = want[e]
			}
			if math.Float64bits(got[e]) != math.Float64bits(w) {
				t.Fatalf("%s[%d] = %v, want %v", what, e, got[e], w)
			}
		}
	}
	gotV, gotI := fresh(), fresh()
	sub.Values(flows, gotV)
	sub.Integrals(flows, gotI)
	check("Values", gotV, wantV)
	check("Integrals", gotI, wantI)
	gotV, gotI = fresh(), fresh()
	for _, cut := range [][2]int32{{0, 3}, {3, 14}, {14, 29}} {
		sub.ValuesRange(flows, gotV, cut[0], cut[1])
		sub.IntegralsRange(flows, gotI, cut[0], cut[1])
	}
	check("ValuesRange", gotV, wantV)
	check("IntegralsRange", gotI, wantI)
}
