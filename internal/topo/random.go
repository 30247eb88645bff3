package topo

import (
	"fmt"
	"math"

	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// LayeredRandom builds a layered DAG with the given number of hidden layers,
// width nodes per layer, and random affine latencies drawn deterministically
// from the seed: every node of layer k connects to every node of layer k+1
// with ℓ(x) = a·x + b, a ∈ [0.5, 1.5), b ∈ [0, 0.5). Source and sink are
// fully connected to the first and last layers. Demand is 1.
func LayeredRandom(layers, width int, seed uint64) (*flow.Instance, error) {
	if layers < 1 || width < 1 {
		return nil, fmt.Errorf("%w: layers=%d width=%d", ErrBadParam, layers, width)
	}
	rng := SplitMix{State: seed}
	g := graph.New()
	s := g.MustAddNode("s")
	t := g.MustAddNode("t")
	prev := []graph.NodeID{s}
	var lats []latency.Function
	for l := 0; l < layers; l++ {
		cur := make([]graph.NodeID, width)
		for w := 0; w < width; w++ {
			cur[w] = g.MustAddNode(fmt.Sprintf("l%d_%d", l, w))
		}
		for _, u := range prev {
			for _, v := range cur {
				g.MustAddEdge(u, v)
				lats = append(lats, latency.Linear{
					Slope:  0.5 + rng.Float64(),
					Offset: 0.5 * rng.Float64(),
				})
			}
		}
		prev = cur
	}
	for _, u := range prev {
		g.MustAddEdge(u, t)
		lats = append(lats, latency.Linear{
			Slope:  0.5 + rng.Float64(),
			Offset: 0.5 * rng.Float64(),
		})
	}
	return flow.NewInstance(g, lats, []flow.Commodity{{Name: "c0", Source: s, Sink: t, Demand: 1}})
}

// SplitMix is the shared deterministic RNG (splitmix64). The zero value with
// State set is ready to use; identical states produce identical streams, which
// is what topology generation and the sweep engine's per-task seed derivation
// rely on.
type SplitMix struct{ State uint64 }

// Next advances the generator and returns the next 64-bit value.
func (s *SplitMix) Next() uint64 {
	s.State += 0x9e3779b97f4a7c15
	z := s.State
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns the next value mapped uniformly into [0, 1).
func (s *SplitMix) Float64() float64 {
	return float64(s.Next()>>11) / float64(1<<53)
}

// Normal returns a standard normal variate by the Box–Muller transform of
// two uniforms, redrawing a first uniform of exactly 0. The count and
// per-agent engines' large-mean samplers draw from it.
func (s *SplitMix) Normal() float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// DeriveSeed mixes a base seed with a task index into an independent stream
// seed: seed derivation is position-based, so task k's seed does not depend on
// how many tasks precede it or on execution order.
func DeriveSeed(base, index uint64) uint64 {
	s := SplitMix{State: base ^ (index+1)*0x9e3779b97f4a7c15}
	return s.Next()
}
