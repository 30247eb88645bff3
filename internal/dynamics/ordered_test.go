package dynamics

// Commodities of orderedMinPaths paths or more run the latency-ordered
// kernel (policy.Ordered); the dense rate matrix is its oracle. The two
// differ only by rounding: these tests hold the row sums of every builtin
// migrator × origin-invariant sampler to 1e-12 of their largest, and the
// derivative and Kᵀv to 1e-12 of max|ḟ|, on boards with clipped migration,
// tied latencies, zero flows and large common latency offsets. Above that
// each comparison allows the dense side's own rounding floor, which can
// exceed 1e-12·max|ḟ| where terms nearly cancel: each side sums a row sum
// of n terms in its own order, so ḟ_p = inflow − f_p·rowSum_p carries n
// ulps of f_p·rowSum_p, and the dense Kᵀv adds n terms onto v_p·(1 −
// rowSum_p/Λ), so it carries n ulps of v_p.

import (
	"fmt"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// orderedBoard is one board shape of the differential test.
type orderedBoard struct {
	name string
	// lat draws a board latency; flow a board flow (0 allowed).
	lat  func(rng *topo.SplitMix) float64
	flow func(rng *topo.SplitMix) float64
}

func orderedBoards() []orderedBoard {
	spread := func(rng *topo.SplitMix) float64 { return 2 * rng.Float64() }
	positive := func(rng *topo.SplitMix) float64 { return rng.Float64() }
	return []orderedBoard{
		{"spread", spread, positive},
		{"ties", func(rng *topo.SplitMix) float64 { return 0.5 * float64(rng.Next()%4) }, positive},
		{"zero-flows", spread, func(rng *topo.SplitMix) float64 {
			if rng.Next()%3 == 0 {
				return 0
			}
			return rng.Float64()
		}},
		{"offset-1e3", func(rng *topo.SplitMix) float64 { return 1e3 + spread(rng) }, positive},
		{"offset-1e6", func(rng *topo.SplitMix) float64 { return 1e6 + spread(rng) }, positive},
	}
}

// orderedMigrators are the builtin migrators in a mild regime (µ rarely
// clipped on a board spread over [0, 2]) and a clipped one (µ = 1 beyond a
// small gain).
func orderedMigrators() []policy.Migrator {
	return []policy.Migrator{
		policy.BetterResponse{},
		policy.Linear{LMax: 2},
		policy.Linear{LMax: 0.05},
		policy.AlphaLinear{AlphaParam: 0.5},
		policy.AlphaLinear{AlphaParam: 50},
		policy.Quadratic{AlphaParam: 0.5, LMax: 2},
		policy.Quadratic{AlphaParam: 40, LMax: 0.1},
		policy.RelativeGain{AlphaParam: 0.5, Floor: 0.5},
		policy.RelativeGain{AlphaParam: 30, Floor: 0.2},
	}
}

var orderedSamplers = []policy.Sampler{policy.Uniform{}, policy.Proportional{}, policy.Boltzmann{C: 3}}

// assertClose fails unless got and want agree, commodity by commodity,
// within 1e-12 of scale(i) plus floor(i).
func assertClose(t *testing.T, what string, inst *flow.Instance, got, want []float64, scale, floor func(i int) float64) {
	t.Helper()
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, hi := inst.CommodityRange(i)
		tol := 1e-12*scale(i) + floor(i)
		for g := lo; g < hi; g++ {
			if d := math.Abs(got[g] - want[g]); d > tol || math.IsNaN(got[g]) {
				t.Fatalf("%s: commodity %d path %d: ordered %v, dense %v (|Δ| %g > %g)", what, i, g-lo, got[g], want[g], d, tol)
			}
		}
	}
}

// maxAbs is max_g |a[g] − b[g]| over commodity i (b nil reads as 0).
func maxAbs(inst *flow.Instance, i int, a, b []float64) float64 {
	lo, hi := inst.CommodityRange(i)
	m := 0.0
	for g := lo; g < hi; g++ {
		v := a[g]
		if b != nil {
			v -= b[g]
		}
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// checkOrderedMatchesDense fills an ordered and a dense rate matrix from
// one board and compares row sums, the derivative and Kᵀv.
func checkOrderedMatchesDense(t *testing.T, inst *flow.Instance, minOrdered int, pol policy.Policy, board, f, v flow.Vector, lats []float64) {
	t.Helper()
	ord := newRateMatrix(inst, nil, pol, minOrdered)
	dense := denseRates(inst, pol)
	ord.fill(pol, board, lats)
	dense.fill(pol, board, lats)

	n := inst.NumPaths()
	gotSums, wantSums := make([]float64, n), make([]float64, n)
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, _ := inst.CommodityRange(i)
		copy(gotSums[lo:], ord.rowSums[i])
		copy(wantSums[lo:], dense.rowSums[i])
	}
	assertClose(t, "row sum", inst, gotSums, wantSums, func(i int) float64 { return maxAbs(inst, i, wantSums, nil) },
		func(int) float64 { return 0 })
	if d := math.Abs(ord.maxRate - dense.maxRate); d > 1e-12*dense.maxRate {
		t.Fatalf("maxRate: ordered %v, dense %v", ord.maxRate, dense.maxRate)
	}

	// outflowFloor is n ulps of max_p |x_p|·rowSum_p over commodity i.
	outflowFloor := func(i int, x []float64) float64 {
		lo, hi := inst.CommodityRange(i)
		m := 0.0
		for g := lo; g < hi; g++ {
			m = math.Max(m, math.Abs(x[g])*wantSums[g])
		}
		return float64(hi-lo) * 0x1p-52 * m
	}
	got, want := make([]float64, n), make([]float64, n)
	ord.derivative(f, got)
	dense.derivative(f, want)
	assertClose(t, "derivative", inst, got, want,
		func(i int) float64 { return maxAbs(inst, i, want, nil) },
		func(i int) float64 { return outflowFloor(i, f) })

	lambda := dense.maxRate
	if lambda <= 0 {
		return
	}
	ord.applyTranspose(v, got, lambda)
	dense.applyTranspose(v, want, lambda)
	// Kᵀv − v = ḟ(v)/Λ carries the rates.
	assertClose(t, "Kᵀv", inst, got, want,
		func(i int) float64 { return maxAbs(inst, i, want, v) },
		func(i int) float64 {
			lo, hi := inst.CommodityRange(i)
			return float64(hi-lo) * 0x1p-52 * maxAbs(inst, i, v, nil)
		})
}

func TestOrderedMatchesDense(t *testing.T) {
	// Every commodity runs the ordered kernel in "all", down to one path;
	// "crossover" runs the production threshold, with commodities on both
	// sides of it.
	insts := []struct {
		name       string
		inst       *flow.Instance
		minOrdered int
	}{
		{"all", commoditySizes(t, 1, 2, 3, 4, 7, 12, 33, 64, 130), 1},
		{"crossover", commoditySizes(t, 5, orderedMinPaths-1, orderedMinPaths, 100), orderedMinPaths},
	}
	rng := &topo.SplitMix{State: 0x0d3e}
	for _, in := range insts {
		inst := in.inst
		for _, b := range orderedBoards() {
			for _, m := range orderedMigrators() {
				for _, s := range orderedSamplers {
					pol := policy.Policy{Sampler: s, Migrator: m}
					t.Run(fmt.Sprintf("%s/%s/%s", in.name, b.name, pol.Name()), func(t *testing.T) {
						for trial := 0; trial < 3; trial++ {
							n := inst.NumPaths()
							board, f, v := make(flow.Vector, n), make(flow.Vector, n), make(flow.Vector, n)
							lats := make([]float64, n)
							for g := range lats {
								lats[g], board[g] = b.lat(rng), b.flow(rng)
								f[g], v[g] = b.flow(rng), b.flow(rng)
							}
							checkOrderedMatchesDense(t, inst, in.minOrdered, pol, board, f, v, lats)
						}
					})
				}
			}
		}
	}
}

// TestOrderedKernelOnRealBoards runs the comparison on boards the fluid
// engine meets: the 5×5 and 6×6 grids, above the crossover, under each
// builtin migrator and sampler, at the uniform flow and a skewed one.
func TestOrderedKernelOnRealBoards(t *testing.T) {
	for _, size := range []int{5, 6} {
		inst, err := topo.Grid(size)
		if err != nil {
			t.Fatal(err)
		}
		lmax := inst.LMax()
		migs := []policy.Migrator{
			policy.BetterResponse{},
			policy.Linear{LMax: lmax},
			policy.AlphaLinear{AlphaParam: 1 / lmax},
			policy.Quadratic{AlphaParam: 1 / lmax, LMax: lmax},
			policy.RelativeGain{AlphaParam: 1, Floor: lmax / 4},
		}
		for _, m := range migs {
			for _, s := range orderedSamplers {
				pol := policy.Policy{Sampler: s, Migrator: m}
				t.Run(fmt.Sprintf("grid%d/%s", size, pol.Name()), func(t *testing.T) {
					for _, f := range []flow.Vector{inst.UniformFlow(), skewed(inst)} {
						checkOrderedMatchesDense(t, inst, orderedMinPaths, pol, f, f, skewed(inst), inst.PathLatencies(f))
					}
				})
			}
		}
	}
}
