package agents

import (
	"math"
	"testing"
)

// oraclePoisson is Poisson with e^-mean computed inside every draw — the
// sampler the per-phase threshold must reproduce bit for bit, kept verbatim.
func oraclePoisson(r *RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(mean + math.Sqrt(mean)*r.normal()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// TestPoissonMatchesOracle draws runShard's way — one e^-tau per mean, then
// poisson for every variate — across (0, 30], at the boundary 30 and the
// first float above it, and beyond, and checks the variates and the stream
// against the oracle.
func TestPoissonMatchesOracle(t *testing.T) {
	taus := []float64{
		-1, 0, math.SmallestNonzeroFloat64, 1e-300, 1e-9, 0.01, 0.2, 0.25, 1,
		5, 29.999999, 30, math.Nextafter(30, 31), 31, 1e6,
	}
	params := NewRNG(21)
	for i := 0; i < 200; i++ {
		taus = append(taus, 30*params.Float64())
	}
	for _, tau := range taus {
		got, want := NewRNG(22), NewRNG(22)
		l := math.Exp(-tau)
		for i := 0; i < 1000; i++ {
			g := got.poisson(tau, l)
			w := oraclePoisson(want, tau)
			if g != w || got.state != want.state {
				t.Fatalf("tau=%v draw %d: %d with state %#x, oracle %d with state %#x", tau, i, g, got.state, w, want.state)
			}
		}
	}
}
