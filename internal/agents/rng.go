package agents

import (
	"math"

	"wardrop/internal/topo"
)

// RNG is the per-agent engine's variate generator. The raw stream is the
// shared splitmix64 discipline from internal/topo (topo.SplitMix): tiny,
// fast and deterministic across platforms, so simulation results are
// reproducible from a seed without depending on math/rand internals, and
// seeds derived by topo.DeriveSeed feed this engine as they feed the count
// engine. On top of the stream it layers the Poisson sampler the agents'
// activations draw from.
type RNG struct {
	state topo.SplitMix
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: topo.SplitMix{State: seed}} }

// Uint64 returns the next raw 64-bit output.
func (r *RNG) Uint64() uint64 { return r.state.Next() }

// Float64 returns a uniform variate in [0,1).
func (r *RNG) Float64() float64 { return r.state.Float64() }

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

// normal returns a standard normal variate (topo.SplitMix.Normal).
func (r *RNG) normal() float64 { return r.state.Normal() }
