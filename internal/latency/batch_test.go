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

// TestCompileEdgesSubset pins the subset compile the flow kernel's
// live-edge program uses: Values and Integrals write exactly the listed
// edges, with the bits the whole program writes there, and leave every
// other entry alone.
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
}
