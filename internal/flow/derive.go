package flow

import (
	"fmt"
	"math"

	"wardrop/internal/latency"
)

// Derive returns a new instance over the same network and path sets with the
// edge latencies replaced by lats (nil keeps the current functions) and each
// commodity demand multiplied by the matching demandScale factor (nil keeps
// the current demands). The invariants ℓmax and β are recomputed for the new
// functions; the path enumeration, the CSR incidence and the graph are shared
// with the receiver, so deriving is cheap even on large instances — only the
// latency half of the kernel (the live-edge program and the ℓ_e(0) vector)
// is compiled again, from the new functions, on first use.
//
// This is the primitive behind time-varying scenarios: each timeline segment
// is a stationary instance derived from the base one.
func (in *Instance) Derive(lats []latency.Function, demandScale []float64) (*Instance, error) {
	if lats == nil {
		lats = in.latencies
	}
	if len(lats) != in.g.NumEdges() {
		return nil, fmt.Errorf("%w: %d functions for %d edges", ErrLatencyCount, len(lats), in.g.NumEdges())
	}
	if demandScale != nil && len(demandScale) != len(in.commodities) {
		return nil, fmt.Errorf("%w: %d scale factors for %d commodities", ErrBadDemand, len(demandScale), len(in.commodities))
	}
	comms := append([]Commodity(nil), in.commodities...)
	if demandScale != nil {
		for i := range comms {
			comms[i].Demand *= demandScale[i]
			if d := comms[i].Demand; d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("%w: commodity %d scaled demand %g", ErrBadDemand, i, d)
			}
		}
	}
	d := &Instance{
		g:           in.g,
		latencies:   append([]latency.Function(nil), lats...),
		commodities: comms,
		paths:       in.paths,
		offsets:     in.offsets,
		totalPaths:  in.totalPaths,
		maxPathLen:  in.maxPathLen,
	}
	for _, paths := range d.paths {
		for _, p := range paths {
			sum := 0.0
			for _, e := range p.Edges {
				sum += d.latencies[e].Value(1)
			}
			d.lmax = math.Max(d.lmax, sum)
		}
	}
	for _, f := range d.latencies {
		d.maxSlope = math.Max(d.maxSlope, f.SlopeBound())
	}
	// The incidence depends only on the shared path sets, so the parent's
	// compiled form is reused; d's kernel compiles only its latency half.
	d.kernInc, _ = in.kernel()
	return d, nil
}
