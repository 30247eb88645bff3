package dynamics

// The fluid integrators call rateMatrix.derivative four times per RK4
// step, so its dense path sweeps four target rows at once. These tests pin
// it bit for bit to the row-at-a-time loop it replaced, kept here as the
// oracle, on random rate matrices over every commodity size 1–9 (each
// remainder mod 4), on multi-commodity instances and on the grids' real
// rates, with the ordered kernel switched off so the grids above the
// crossover keep pinning the dense loop.

import (
	"fmt"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
	"wardrop/internal/policy"
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

// commoditySizes builds one instance whose commodities route over parallel
// links of their own, one commodity per size.
func commoditySizes(t testing.TB, sizes ...int) *flow.Instance {
	t.Helper()
	g := graph.New()
	var lats []latency.Function
	var comms []flow.Commodity
	for i, n := range sizes {
		s := g.MustAddNode(fmt.Sprintf("s%d", i))
		d := g.MustAddNode(fmt.Sprintf("t%d", i))
		for j := 0; j < n; j++ {
			g.MustAddEdge(s, d)
			lats = append(lats, latency.Linear{Slope: 1 + float64(j), Offset: 0.1})
		}
		comms = append(comms, flow.Commodity{Name: fmt.Sprintf("c%d", i), Source: s, Sink: d, Demand: 1})
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

// denseRates sizes a rate matrix that keeps every commodity dense.
func denseRates(inst *flow.Instance, pol policy.Policy) *rateMatrix {
	return newRateMatrix(inst, nil, pol, math.MaxInt)
}

func TestDerivativeMatchesRowwiseOnRandomRates(t *testing.T) {
	inst := commoditySizes(t, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	rm := denseRates(inst, policy.Policy{})
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
			rm := denseRates(inst, pol)
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

// rateBenchSizes are the commodity sizes of the kernel benchmarks.
var rateBenchSizes = []int{4, 8, 12, 16, 24, 32, 48, 64, 128, 252, 1024}

// benchRates runs body on one commodity of n parallel links under the
// replicator, from a skewed board, with the ordered kernel and with the
// dense matrix.
func benchRates(b *testing.B, body func(b *testing.B, rm *rateMatrix, pol policy.Policy, f flow.Vector, lats []float64)) {
	for _, n := range rateBenchSizes {
		inst, err := topo.LinearParallelLinks(n)
		if err != nil {
			b.Fatal(err)
		}
		pol := mustReplicator(b, inst.LMax())
		f := skewed(inst)
		lats := inst.PathLatencies(f)
		for _, side := range []struct {
			name       string
			minOrdered int
		}{{"ordered", 1}, {"dense", math.MaxInt}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, side.name), func(b *testing.B) {
				rm := newRateMatrix(inst, nil, pol, side.minOrdered)
				rm.fill(pol, f, lats)
				b.ReportAllocs()
				b.ResetTimer()
				body(b, rm, pol, f, lats)
			})
		}
	}
}

// BenchmarkRateDerivative times one derivative call, the inner loop of
// every fluid phase (four calls per RK4 step), and BenchmarkRateFill one
// fill, paid once per stale phase and once per fresh derivative.
// orderedMinPaths is read off the two tables: the smallest size at which
// the ordered side wins both.
func BenchmarkRateDerivative(b *testing.B) {
	benchRates(b, func(b *testing.B, rm *rateMatrix, _ policy.Policy, f flow.Vector, _ []float64) {
		df := make([]float64, len(f))
		for i := 0; i < b.N; i++ {
			rm.derivative(f, df)
		}
	})
}

func BenchmarkRateFill(b *testing.B) {
	benchRates(b, func(b *testing.B, rm *rateMatrix, pol policy.Policy, f flow.Vector, lats []float64) {
		for i := 0; i < b.N; i++ {
			rm.fill(pol, f, lats)
		}
	})
}
