package dynamics

// The fluid integrators call rateMatrix.derivative four times per RK4
// step, so it sweeps four target rows at once. These tests pin it bit for
// bit to the row-at-a-time loop it replaced, kept here as the oracle, on
// random rate matrices over every commodity size 1–9 (each remainder mod
// 4), on multi-commodity instances and on the 6×6 grid's real rates.

import (
	"fmt"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
	"wardrop/internal/topo"
)

// derivativeRowwise is the row-at-a-time derivative: for each target p,
// −f_p·rowSum_p, then f_q·R[q][p] for q ascending.
func derivativeRowwise(rm *rateMatrix, f flow.Vector, df []float64) {
	for i := 0; i < rm.inst.NumCommodities(); i++ {
		lo, hi := rm.inst.CommodityRange(i)
		n := hi - lo
		ratesT := rm.ratesT[i]
		sums := rm.rowSums[i]
		for p := 0; p < n; p++ {
			row := ratesT[p*n : (p+1)*n]
			acc := -f[lo+p] * sums[p]
			for q, r := range row {
				acc += f[lo+q] * r
			}
			df[lo+p] = acc
		}
	}
}

// commoditySizes builds one instance whose commodity i routes over i+1
// parallel links of its own, for every size in 1..maxPaths.
func commoditySizes(t testing.TB, maxPaths int) *flow.Instance {
	t.Helper()
	g := graph.New()
	var lats []latency.Function
	var comms []flow.Commodity
	for n := 1; n <= maxPaths; n++ {
		s := g.MustAddNode(fmt.Sprintf("s%d", n))
		d := g.MustAddNode(fmt.Sprintf("t%d", n))
		for j := 0; j < n; j++ {
			g.MustAddEdge(s, d)
			lats = append(lats, latency.Linear{Slope: 1 + float64(j), Offset: 0.1})
		}
		comms = append(comms, flow.Commodity{Name: fmt.Sprintf("c%d", n), Source: s, Sink: d, Demand: 1})
	}
	inst, err := flow.NewInstance(g, lats, comms)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// randomize overwrites the matrix with random rates and row sums spread
// over several magnitudes, with sprinkled exact zeros, and returns a
// random flow of the same shape.
func randomize(rm *rateMatrix, rng *topo.SplitMix) flow.Vector {
	draw := func() float64 {
		if rng.Next()%5 == 0 {
			return 0
		}
		return rng.Float64() * math.Pow(10, float64(int(rng.Next()%7))-3)
	}
	for i := range rm.ratesT {
		for k := range rm.ratesT[i] {
			rm.ratesT[i][k] = draw()
		}
		for p := range rm.rowSums[i] {
			rm.rowSums[i][p] = draw()
		}
	}
	f := make(flow.Vector, rm.inst.NumPaths())
	for g := range f {
		f[g] = draw()
	}
	return f
}

func assertDerivativeBits(t *testing.T, rm *rateMatrix, f flow.Vector) {
	t.Helper()
	want := make([]float64, len(f))
	got := make([]float64, len(f))
	derivativeRowwise(rm, f, want)
	rm.derivative(f, got)
	for g := range want {
		if math.Float64bits(got[g]) != math.Float64bits(want[g]) {
			t.Fatalf("df[%d] = %v (%#x), row-at-a-time %v (%#x)",
				g, got[g], math.Float64bits(got[g]), want[g], math.Float64bits(want[g]))
		}
	}
}

func TestDerivativeMatchesRowwiseOnRandomRates(t *testing.T) {
	inst := commoditySizes(t, 9)
	rm := newRateMatrix(inst, nil)
	rng := &topo.SplitMix{State: 0xd1ff}
	for trial := 0; trial < 200; trial++ {
		f := randomize(rm, rng)
		assertDerivativeBits(t, rm, f)
	}
}

func TestDerivativeMatchesRowwiseOnFilledRates(t *testing.T) {
	multi, err := topo.MultiCommodityParallel(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := topo.TwoCommodityOverlap()
	if err != nil {
		t.Fatal(err)
	}
	insts := map[string]*flow.Instance{"multi": multi, "overlap": overlap}
	for n := 2; n <= 6; n++ {
		grid, err := topo.Grid(n)
		if err != nil {
			t.Fatal(err)
		}
		insts[fmt.Sprintf("grid%d", n)] = grid
	}
	for name, inst := range insts {
		t.Run(name, func(t *testing.T) {
			pol := mustReplicator(t, inst.LMax())
			rm := newRateMatrix(inst, nil)
			rng := &topo.SplitMix{State: 5}
			for trial := 0; trial < 10; trial++ {
				f := make(flow.Vector, inst.NumPaths())
				for i := 0; i < inst.NumCommodities(); i++ {
					lo, hi := inst.CommodityRange(i)
					total := 0.0
					for g := lo; g < hi; g++ {
						f[g] = rng.Float64()
						total += f[g]
					}
					for g := lo; g < hi; g++ {
						f[g] *= inst.Commodity(i).Demand / total
					}
				}
				rm.fill(pol, f, inst.PathLatencies(f))
				assertDerivativeBits(t, rm, f)
			}
		})
	}
}

// BenchmarkRateDerivative times one derivative call on the 252-path 6×6
// grid: the inner loop of every fluid phase (four calls per RK4 step).
func BenchmarkRateDerivative(b *testing.B) {
	inst, err := topo.Grid(6)
	if err != nil {
		b.Fatal(err)
	}
	pol := mustReplicator(b, inst.LMax())
	f := inst.UniformFlow()
	rm := newRateMatrix(inst, nil)
	rm.fill(pol, f, inst.PathLatencies(f))
	df := make([]float64, len(f))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.derivative(f, df)
	}
}
