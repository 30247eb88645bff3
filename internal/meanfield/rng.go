package meanfield

import (
	"math"

	"wardrop/internal/topo"
)

// RNG is the count engine's variate generator. The raw stream is the shared
// splitmix64 discipline from internal/topo (topo.SplitMix), so seeds derived
// by topo.DeriveSeed feed this engine exactly as they feed topology
// generation and the per-agent simulator; on top of the stream it layers the
// binomial and multinomial samplers the count dynamics are built from.
type RNG struct {
	src topo.SplitMix
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{src: topo.SplitMix{State: seed}} }

// Uint64 returns the next raw 64-bit output.
func (r *RNG) Uint64() uint64 { return r.src.Next() }

// Float64 returns a uniform variate in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// binvCutoff is the largest mean handled by exact inversion; above it the
// normal approximation with continuity correction takes over — the same
// small/large split (and threshold) as the per-agent RNG's Poisson sampler.
const binvCutoff = 30

// Binomial returns a Binomial(n, p) variate. The expected cost is O(min(np,
// n(1-p))) up to the cutoff and O(1) beyond it, so phase cost never grows
// with the population. Out-of-range p is clamped: p <= 0 gives 0, p >= 1
// gives n.
func (r *RNG) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		// Symmetry keeps the inversion mean at min(np, n(1-p)).
		return n - r.Binomial(n, 1-p)
	}
	mean := float64(n) * p
	if mean <= binvCutoff {
		return binomialInv(n, p, r.Float64())
	}
	// Normal approximation with continuity correction, clamped to [0, n].
	x := math.Round(mean + math.Sqrt(mean*(1-p))*r.src.Normal())
	if x < 0 {
		return 0
	}
	if x >= float64(n) {
		return n
	}
	return int64(x)
}

// binomialInv inverts the uniform u by sequential search (the classic BINV
// recurrence): walk the pmf from k = 0, subtracting each term from u until
// it is exhausted. Requires p <= 1/2 and np <= binvCutoff.
func binomialInv(n int64, p, u float64) int64 {
	// Squeeze: most draws of a large, sparsely migrating population have
	// np ≪ 1 and return 0, which needs only u <= q^n, not q^n itself.
	// Bernoulli's inequality gives q^n = (1-p)^n >= 1 - np. With np < 1 and
	// p <= 1/2 the exponent n·log1p(-p) below is under 2 in magnitude, so
	// the computed q^n is within a few ulps of the true value (relative
	// error under 1e-15), and mean rounds by at most an ulp. The bound below
	// sits under 1 - np by more than 1e-12, over 10³ times that error, so
	// every u it accepts is one the search would stop on at k = 0: the draw
	// and the stream are exactly the full search's.
	mean := float64(n) * p
	if mean < 1 && u <= 1-mean*(1+1e-9)-1e-12 {
		return 0
	}
	q := 1 - p
	s := p / q
	a := float64(n+1) * s
	// q^n via log1p: np <= 30 and p <= 1/2 bound n·log(q) above -2·30·ln 2,
	// far from underflow.
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
			// Accumulated rounding exhausted the pmf before u (probability
			// ~ulp); the remaining mass is indistinguishable from the tail.
			return k
		}
	}
	return k
}

// Multinomial splits total into len(probs) buckets, adding each bucket's
// draw to out (out[q] += X_q, ΣX_q = total exactly). probs must be
// non-negative with sum at most 1 (up to rounding); any remaining
// probability mass — and any floating-point leftover — lands on the last
// bucket, so conservation holds under every split. The draw is the standard
// conditional-binomial chain, costing one Binomial per positive-probability
// bucket.
func (r *RNG) Multinomial(total int64, probs []float64, out []int64) {
	if total <= 0 || len(probs) == 0 {
		return
	}
	rem := total
	remP := 1.0
	for q := 0; q < len(probs)-1 && rem > 0 && remP > 0; q++ {
		pq := probs[q]
		if pq <= 0 {
			continue
		}
		x := r.Binomial(rem, pq/remP)
		out[q] += x
		rem -= x
		remP -= pq
	}
	out[len(probs)-1] += rem
}
