// Package wardrop is a Go reproduction of "Adaptive routing with stale
// information" (Fischer & Vöcking, PODC 2005 / TCS 410(2009) 3357–3371).
//
// It implements the Wardrop routing model with an infinite population of
// infinitesimal agents, Mitzenmacher's bulletin-board model of stale
// latency information, the paper's two-step adaptive rerouting policies
// (sample a path, migrate with a latency-gain-dependent probability), the
// α-smoothness condition that separates convergent policies from
// oscillating ones, and the fluid-limit dynamics that make all of it
// executable:
//
//   - build a network with NewGraph and latency functions (Linear, Kink,
//     NewBPR, …), then an Instance with NewInstance or a canonical topology
//     (Pigou, Braess, TwoLinkKink, …);
//   - pick a Policy — Replicator (proportional sampling + linear migration,
//     Theorem 7), UniformLinear (Theorem 6), or any Sampler/Migrator combo —
//     and a bulletin-board period, e.g. the provably safe SafeUpdatePeriod;
//   - declare a Scenario (instance + policy + information model + initial
//     flow + run shape), pick an Engine — FluidEngine (stale Eq. 3, or fresh
//     Eq. 1), BestResponseEngine (Eq. 4) or AgentsEngine (finite N) — and
//     execute it with Run(ctx, scenario, opts...), attaching Observers
//     (TrajectoryRecorder, EquilibriumStopper, ProgressReporter, or your
//     own) to watch or stop the run;
//   - compute reference equilibria with SolveEquilibrium and compare using
//     the potential and the (δ,ε)-equilibrium metrics on Instance;
//   - or skip the Go assembly entirely: ParseScenario loads a declarative
//     scenario file (instance-or-topology, policy, update period, engine and
//     run shape — the single-run counterpart of a campaign cell), and every
//     component in it resolves through the registry-driven catalog — extend
//     the library with RegisterLatency, RegisterTopology, RegisterPolicy and
//     RegisterMigrator, and the new names become selectable from instance
//     documents, scenario files, campaign axes and the CLIs alike (list
//     everything with Catalog or wardsim -list).
//
// The quickstart example:
//
//	inst, _ := wardrop.Pigou()
//	pol, _ := wardrop.Replicator(inst.LMax())
//	T, _ := wardrop.SafeUpdatePeriodFor(pol, inst)
//	res, _ := wardrop.Run(ctx, wardrop.Scenario{
//		Instance: inst, Policy: pol, UpdatePeriod: T, Horizon: 100,
//	})
//	fmt.Println(res.Final, res.FinalPotential)
//
// Swapping the dynamics is one field, not a different function:
//
//	wardrop.Scenario{Engine: wardrop.AgentsEngine{N: 10000, Seed: 7}, ...}
package wardrop

import (
	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// Graph building ------------------------------------------------------------

// Graph is a directed finite multigraph (parallel edges allowed, self-loops
// rejected).
type Graph = graph.Graph

// NodeID identifies a node.
type NodeID = graph.NodeID

// EdgeID identifies an edge.
type EdgeID = graph.EdgeID

// Path is a simple directed path given by its edge sequence.
type Path = graph.Path

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// Latency functions ----------------------------------------------------------

// LatencyFunc is an edge latency function ℓ : [0,1] → ℝ≥0 (continuous,
// non-decreasing, bounded slope) with the calculus the dynamics needs.
type LatencyFunc = latency.Function

// Constant is ℓ(x) = C.
type Constant = latency.Constant

// Linear is ℓ(x) = Slope·x + Offset.
type Linear = latency.Linear

// Polynomial is ℓ(x) = Σ Coeffs[i]·x^i with non-negative coefficients.
type Polynomial = latency.Polynomial

// Monomial is ℓ(x) = Coef·x^Degree.
type Monomial = latency.Monomial

// BPR is the Bureau of Public Roads function t0·(1+0.15(x/c)^4).
type BPR = latency.BPR

// MM1 is the queueing latency x/(c−x), c > 1.
type MM1 = latency.MM1

// PiecewiseLinear is a continuous piecewise-linear latency function.
type PiecewiseLinear = latency.PiecewiseLinear

// Kink returns the paper's §3.2 latency max{0, β(x−½)}.
func Kink(beta float64) PiecewiseLinear { return latency.Kink(beta) }

// NewPolynomial validates coefficients and builds a Polynomial.
func NewPolynomial(coeffs ...float64) (Polynomial, error) { return latency.NewPolynomial(coeffs...) }

// NewBPR validates parameters and builds a BPR function.
func NewBPR(freeTime, capacity float64) (BPR, error) { return latency.NewBPR(freeTime, capacity) }

// NewMM1 validates capacity > 1 and builds an MM1 function.
func NewMM1(capacity float64) (MM1, error) { return latency.NewMM1(capacity) }

// Instances and flows ---------------------------------------------------------

// Instance is an immutable Wardrop routing instance: network + latency
// functions + commodities with enumerated path strategy spaces. It exposes
// the paper's measurements: Potential (Beckmann–McGuire–Winsten), per-
// commodity min/average latency, (δ,ε)- and weak (δ,ε)-equilibrium volumes,
// ℓmax, β and D.
type Instance = flow.Instance

// Commodity routes Demand flow units from Source to Sink.
type Commodity = flow.Commodity

// Flow is a path-flow vector indexed by the instance's global path index.
type Flow = flow.Vector

// InstanceOption configures NewInstance.
type InstanceOption = flow.Option

// WithMaxPathLen bounds path enumeration to n edges.
func WithMaxPathLen(n int) InstanceOption { return flow.WithMaxPathLen(n) }

// WithKShortestPaths restricts each commodity's strategy space to its k
// cheapest free-flow paths (Yen's algorithm) — use on graphs whose simple-
// path count explodes.
func WithKShortestPaths(k int) InstanceOption { return flow.WithKShortestPaths(k) }

// NewInstance validates and builds an instance, enumerating each
// commodity's simple paths.
func NewInstance(g *Graph, lats []LatencyFunc, comms []Commodity, opts ...InstanceOption) (*Instance, error) {
	return flow.NewInstance(g, lats, comms, opts...)
}
