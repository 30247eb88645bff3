package agents

import "math"

// RNG is a splitmix64 generator: tiny, fast, and deterministic across
// platforms, so simulation results are reproducible from a seed without
// depending on math/rand internals.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw 64-bit output.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Poisson returns a Poisson(mean) variate via Knuth's product method —
// appropriate for the small per-phase activation means (T ≈ 0.01…5) this
// simulator uses. For large means it falls back to a normal approximation.
func (r *RNG) Poisson(mean float64) int {
	return r.poisson(mean, math.Exp(-mean))
}

// poisson is Poisson given l = e^-mean, the product method's threshold, so
// callers drawing many variates of one mean compute the exponential once.
func (r *RNG) poisson(mean, l float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction.
		n := int(math.Round(mean + math.Sqrt(mean)*r.normal()))
		if n < 0 {
			return 0
		}
		return n
	}
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

// normal returns a standard normal variate (Box–Muller).
func (r *RNG) normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
