// Package flow defines Wardrop routing instances (graph + latency functions +
// commodities with enumerated path sets), feasible flow vectors over paths,
// and the measurements the paper's analysis is built on: edge/path latencies,
// the Beckmann–McGuire–Winsten potential, per-commodity minimum and average
// latencies, and the (δ,ε)- and weak (δ,ε)-equilibrium metrics of §5.
//
// Two evaluation paths compute those measurements: the naive per-method
// reference implementation (EdgeFlows, EdgeLatencies,
// PathLatenciesFromEdges, PotentialFromEdges — the differential-testing
// oracle) and the compiled kernel (kernel.go: CSR incidence, Evaluator,
// Workspace) every simulation engine runs on, which produces bit-identical
// values with batch latency kernels, zero steady-state allocation and
// incremental updates after sparse flow moves.
package flow

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// Sentinel errors for instance construction and flow validation.
var (
	// ErrLatencyCount indicates the latency slice does not match the edge count.
	ErrLatencyCount = errors.New("flow: latency function count != edge count")
	// ErrBadDemand indicates a non-positive commodity demand.
	ErrBadDemand = errors.New("flow: commodity demand must be positive")
	// ErrNoCommodities indicates an instance without commodities.
	ErrNoCommodities = errors.New("flow: instance needs at least one commodity")
	// ErrDimension indicates a flow vector of the wrong length.
	ErrDimension = errors.New("flow: vector has wrong dimension")
	// ErrNegativeFlow indicates a negative path flow.
	ErrNegativeFlow = errors.New("flow: negative path flow")
	// ErrDemandMismatch indicates commodity path flows not summing to demand.
	ErrDemandMismatch = errors.New("flow: path flows do not sum to demand")
)

// Commodity is a demand of Demand flow units to route from Source to Sink.
type Commodity struct {
	Name   string
	Source graph.NodeID
	Sink   graph.NodeID
	Demand float64
}

// Instance is an immutable Wardrop routing instance: a network with latency
// functions and commodities whose strategy spaces are the enumerated simple
// paths between their terminals. Build with NewInstance; safe for concurrent
// reads afterwards.
type Instance struct {
	g           *graph.Graph
	latencies   []latency.Function
	commodities []Commodity

	paths      [][]graph.Path // per commodity
	offsets    []int          // offsets[i] = global index of commodity i's first path
	totalPaths int
	maxPathLen int

	lmax     float64
	maxSlope float64

	// Compiled evaluation kernel (kernel.go) and the all-edge latency
	// program, each built on first use; the onces keep lazy compilation
	// safe under the instance's concurrent-reads contract.
	kernOnce sync.Once
	kernInc  *incidence
	kernLat  *liveLatency
	progOnce sync.Once
	prog     *latency.Program
}

// Option configures instance construction.
type Option func(*options)

type options struct {
	maxPathLen int
	kPaths     int
}

// WithMaxPathLen bounds path enumeration to paths of at most n edges.
// n <= 0 (the default) enumerates all simple paths.
func WithMaxPathLen(n int) Option {
	return func(o *options) { o.maxPathLen = n }
}

// WithKShortestPaths restricts each commodity's strategy space to its k
// cheapest loopless paths (Yen's algorithm) under the free-flow latencies
// ℓ_e(0), with a tiny per-edge penalty breaking zero-latency ties towards
// fewer hops. Use this instead of full enumeration on graphs whose simple-
// path count explodes. k <= 0 (the default) enumerates all simple paths.
// Each ℓ_e(0) is evaluated once, on the calling goroutine; the searches of
// the commodities then share the compiled weights and run concurrently (see
// NewInstance). Equal-cost paths are ranked in a fixed order, so the path
// sets do not depend on GOMAXPROCS. A commodity whose source is its sink
// has no path and fails the build with graph.ErrNoPath.
func WithKShortestPaths(k int) Option {
	return func(o *options) { o.kPaths = k }
}

// NewInstance validates the inputs, enumerates every commodity's path set and
// precomputes the instance invariants D (max path length), β (max latency
// slope) and ℓmax (max zero-excess path latency Σ_{e∈P} ℓ_e(1)). The path
// sets are built on up to GOMAXPROCS goroutines, one commodity at a time
// each (a single commodity builds inline); the instance, and the error
// returned when commodities fail (the lowest-index one's), are the same at
// any GOMAXPROCS.
func NewInstance(g *graph.Graph, lats []latency.Function, comms []Commodity, opts ...Option) (*Instance, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	if len(lats) != g.NumEdges() {
		return nil, fmt.Errorf("%w: %d functions for %d edges", ErrLatencyCount, len(lats), g.NumEdges())
	}
	if len(comms) == 0 {
		return nil, ErrNoCommodities
	}
	inst := &Instance{
		g:           g,
		latencies:   append([]latency.Function(nil), lats...),
		commodities: append([]Commodity(nil), comms...),
		paths:       make([][]graph.Path, len(comms)),
		offsets:     make([]int, len(comms)+1),
	}
	var kpaths *graph.Weighted
	if o.kPaths > 0 {
		kpaths = g.Weighted(func(e graph.EdgeID) float64 { return lats[e].Value(0) + 1e-9 })
	}
	errs := make([]error, len(comms))
	forEachCommodity(len(comms), func(i int) {
		c := comms[i]
		if c.Demand <= 0 || math.IsNaN(c.Demand) || math.IsInf(c.Demand, 0) {
			errs[i] = fmt.Errorf("%w: commodity %d demand %g", ErrBadDemand, i, c.Demand)
			return
		}
		var paths []graph.Path
		var err error
		if kpaths != nil {
			paths, err = kpaths.KShortestPaths(c.Source, c.Sink, o.kPaths)
		} else {
			paths, err = g.EnumeratePaths(c.Source, c.Sink, o.maxPathLen)
		}
		if err != nil {
			errs[i] = fmt.Errorf("flow: commodity %d: %w", i, err)
			return
		}
		inst.paths[i] = paths
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, paths := range inst.paths {
		inst.offsets[i] = inst.totalPaths
		inst.totalPaths += len(paths)
		for _, p := range paths {
			if p.Len() > inst.maxPathLen {
				inst.maxPathLen = p.Len()
			}
		}
	}
	inst.offsets[len(comms)] = inst.totalPaths

	for _, paths := range inst.paths {
		for _, p := range paths {
			sum := 0.0
			for _, e := range p.Edges {
				sum += lats[e].Value(1)
			}
			inst.lmax = math.Max(inst.lmax, sum)
		}
	}
	for _, f := range lats {
		inst.maxSlope = math.Max(inst.maxSlope, f.SlopeBound())
	}
	return inst, nil
}

// forEachCommodity calls build(i) for every i < n on up to GOMAXPROCS
// goroutines, each taking the next index in turn, and returns when all
// calls have. A single commodity or a single processor runs inline.
func forEachCommodity(n int, build func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			build(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				build(i)
			}
		}()
	}
	wg.Wait()
}

// Graph returns the underlying network.
func (in *Instance) Graph() *graph.Graph { return in.g }

// Latency returns edge e's latency function.
func (in *Instance) Latency(e graph.EdgeID) latency.Function { return in.latencies[e] }

// NumCommodities reports the number of commodities.
func (in *Instance) NumCommodities() int { return len(in.commodities) }

// Commodity returns commodity i.
func (in *Instance) Commodity(i int) Commodity { return in.commodities[i] }

// NumPaths reports the total number of paths across all commodities (the
// dimension of flow vectors).
func (in *Instance) NumPaths() int { return in.totalPaths }

// NumCommodityPaths reports |P_i| for commodity i.
func (in *Instance) NumCommodityPaths(i int) int { return len(in.paths[i]) }

// Paths returns commodity i's path set. The slice is owned by the instance
// and must not be modified.
func (in *Instance) Paths(i int) []graph.Path { return in.paths[i] }

// GlobalIndex maps (commodity, local path index) to the flow-vector index.
func (in *Instance) GlobalIndex(commodity, local int) int {
	return in.offsets[commodity] + local
}

// CommodityRange returns the half-open global index range [lo, hi) of
// commodity i's paths.
func (in *Instance) CommodityRange(i int) (lo, hi int) {
	return in.offsets[i], in.offsets[i+1]
}

// CommodityOf returns the commodity owning global path index g.
func (in *Instance) CommodityOf(g int) int {
	// Linear scan is fine: commodity counts are small; callers in hot loops
	// iterate per commodity anyway.
	for i := 0; i+1 < len(in.offsets); i++ {
		if g < in.offsets[i+1] {
			return i
		}
	}
	return len(in.commodities) - 1
}

// Path returns the path at global index g.
func (in *Instance) Path(g int) graph.Path {
	i := in.CommodityOf(g)
	return in.paths[i][g-in.offsets[i]]
}

// MaxPathLen returns D, the maximum number of edges of any enumerated path.
func (in *Instance) MaxPathLen() int { return in.maxPathLen }

// MaxSlope returns β, the maximum slope bound of any edge latency function.
func (in *Instance) MaxSlope() float64 { return in.maxSlope }

// LMax returns ℓmax, the paper's upper bound on any path latency:
// max_P Σ_{e∈P} ℓ_e(1).
func (in *Instance) LMax() float64 { return in.lmax }

// TotalDemand returns Σ_i r_i.
func (in *Instance) TotalDemand() float64 {
	sum := 0.0
	for _, c := range in.commodities {
		sum += c.Demand
	}
	return sum
}
