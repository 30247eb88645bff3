package meanfield

import (
	"math"
	"testing"

	"wardrop/internal/topo"
)

// oracleBinomialInv is binomialInv without the squeeze: q^n is computed for
// every draw and the search always starts at k = 0. It is the sampler the
// squeeze must reproduce bit for bit, kept verbatim but for taking its
// uniform as an argument.
func oracleBinomialInv(n int64, p, u float64) int64 {
	q := 1 - p
	s := p / q
	a := float64(n+1) * s
	prob := math.Exp(float64(n) * math.Log1p(-p))
	var k int64
	for u > prob {
		u -= prob
		k++
		if k >= n {
			return n
		}
		prob *= a/float64(k) - s
		if prob <= 0 {
			return k
		}
	}
	return k
}

// randomInversionPair draws an inversion-range (n, p): log2 n uniform over
// [lo, hi), p log-uniform from 1e-16 to min(1/2, 30/n), and np <= 30.
func randomInversionPair(r *topo.SplitMix, lo, hi float64) (int64, float64) {
	n := int64(math.Exp2(lo + (hi-lo)*r.Float64()))
	if n < 1 {
		n = 1
	}
	logMin := math.Log(1e-16)
	logMax := math.Log(math.Min(0.5, binvCutoff/float64(n)))
	p := math.Exp(logMin + (logMax-logMin)*r.Float64())
	for float64(n)*p > binvCutoff {
		p = math.Nextafter(p, 0)
	}
	return n, p
}

// TestBinomialMatchesOracle sweeps 10⁷ (n, p) pairs over the inversion
// range, n in four bands from 1 to 2⁴⁰, and checks that Binomial returns
// the oracle's variate and leaves the stream exactly where the oracle's one
// uniform does.
func TestBinomialMatchesOracle(t *testing.T) {
	params := topo.SplitMix{State: 11}
	got, want := NewRNG(12), NewRNG(12)
	const perBand = 2_500_000
	for _, band := range [][2]float64{{0, 10}, {10, 20}, {20, 30}, {30, 40}} {
		for i := 0; i < perBand; i++ {
			n, p := randomInversionPair(&params, band[0], band[1])
			g := got.Binomial(n, p)
			w := oracleBinomialInv(n, p, want.Float64())
			if g != w || got.src != want.src {
				t.Fatalf("Binomial(%d, %g) = %d with state %#x, oracle %d with state %#x", n, p, g, got.src.State, w, want.src.State)
			}
		}
	}
}

// TestBinomialInvSqueezeEdges runs the sampler and the oracle on the
// uniforms where the squeeze could go wrong: at and one ulp either side of
// the squeeze bound and of the computed q^n, on hand-picked pairs (means
// from 1e-16 to just under and over 1) and on random ones.
func TestBinomialInvSqueezeEdges(t *testing.T) {
	pairs := []struct {
		n int64
		p float64
	}{
		{1, 1e-16}, {1, 0.5}, {2, 0.25}, {2, 0.4999}, {3, 1.0 / 3},
		{10, 0.0999999}, {10, 0.1}, {10, 0.1000001}, {1000, 1e-3},
		{1 << 20, 1e-7}, {1 << 20, 0.99 / (1 << 20)}, {1 << 40, 1e-16},
		{1 << 40, 9e-13}, {1 << 40, 0.999999 / (1 << 40)}, {100, 0.3},
	}
	params := topo.SplitMix{State: 13}
	for i := 0; i < 100_000; i++ {
		n, p := randomInversionPair(&params, 0, 40)
		pairs = append(pairs, struct {
			n int64
			p float64
		}{n, p})
	}
	for _, c := range pairs {
		mean := float64(c.n) * c.p
		bound := 1 - mean*(1+1e-9) - 1e-12
		qn := math.Exp(float64(c.n) * math.Log1p(-c.p))
		for _, x := range []float64{bound, qn} {
			for _, u := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, 1)} {
				if u < 0 || u >= 1 {
					continue
				}
				if g, w := binomialInv(c.n, c.p, u), oracleBinomialInv(c.n, c.p, u); g != w {
					t.Fatalf("binomialInv(%d, %g, %v) = %d, oracle %d", c.n, c.p, u, g, w)
				}
			}
		}
	}
}
