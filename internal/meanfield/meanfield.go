// Package meanfield implements the count-based mean-field engine: the same
// bulletin-board stochastic process as the per-agent simulator, represented
// as integer counts per (commodity, path) instead of individual agents.
//
// Within a phase the board is frozen, so every agent's activations form an
// independent Markov chain on its commodity's paths with a one-activation
// transition row derived from the board (sample a path from the policy's
// table, migrate with the policy's probability). The phase-end counts are
// therefore a sum of independent multinomials, which this engine samples
// directly: it thins each row by the probability of activating at least
// once, then repeatedly (a) splits every active row over its destinations
// with one multinomial draw and (b) thins the survivors by the Poisson
// activation-count tail ratio, until no agent has activations left. The
// result is distributionally identical to simulating each agent — not an
// approximation — while a phase costs O(paths² · rounds) independent of the
// population, so millions of agents cost the same as thousands.
package meanfield

import (
	"errors"
	"fmt"
	"math"

	"wardrop/internal/agents"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// Sentinel errors.
var (
	// ErrBadConfig indicates an invalid simulation configuration.
	ErrBadConfig = errors.New("meanfield: invalid config")
)

// MaxPopulation bounds the population so agent counts stay exactly
// representable as float64 empirical flows (2^53). Populations beyond it
// would silently round when converted to flow.
const MaxPopulation = int64(1) << 53

// Config parameterises a count-based mean-field simulation. The fields
// mirror the per-agent simulator's (minus sharding, which counts make
// unnecessary), so the two engines are interchangeable in every harness.
type Config struct {
	// N is the total number of agents, split across commodities in
	// proportion to demand (each commodity gets at least one agent). Each
	// agent of commodity i carries weight r_i/n_i flow.
	N int64
	// Policy is the rerouting policy.
	Policy policy.Policy
	// UpdatePeriod is the bulletin-board period T (> 0).
	UpdatePeriod float64
	// Horizon is the simulated time budget.
	Horizon float64
	// Seed makes runs reproducible (splitmix64, the shared topo.SplitMix
	// stream discipline).
	Seed uint64
	// InitialFlow, if non-nil, distributes each commodity's agents over its
	// paths proportionally to this (feasible) flow vector instead of the
	// default even spread. Rounding drift lands on the commodity's first
	// path — the same placement rule as the per-agent engine.
	InitialFlow flow.Vector

	// RunShape carries the settings every engine shares. Observers and the
	// (δ,ε) accounting see the empirical flow; the workspace supplies the
	// board latencies, sampling tables and flow buffers.
	dynamics.RunShape
}

// Sim is a configured simulation bound to an instance. Create with New, run
// with RunContext.
type Sim struct {
	inst *flow.Instance
	cfg  Config
	// counts[g] is the number of agents currently on global path g.
	counts []int64
	// active and landed are the phase loop's round buffers: agents still
	// owed an activation this round, and agents that just completed one.
	active []int64
	landed []int64
	// weights[i] is the flow carried by one agent of commodity i.
	weights []float64
}

// New validates the configuration and distributes the population over paths.
func New(inst *flow.Instance, cfg Config) (*Sim, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("%w: N=%d", ErrBadConfig, cfg.N)
	}
	if cfg.N > MaxPopulation {
		return nil, fmt.Errorf("%w: N=%d exceeds the exactly representable population %d", ErrBadConfig, cfg.N, MaxPopulation)
	}
	if cfg.Policy.Sampler == nil || cfg.Policy.Migrator == nil {
		return nil, fmt.Errorf("%w: policy requires sampler and migrator", ErrBadConfig)
	}
	if err := cfg.Validate(ErrBadConfig, cfg.UpdatePeriod, cfg.Horizon); err != nil {
		return nil, err
	}

	s := &Sim{inst: inst, cfg: cfg}
	perComm, ok := agents.Populations(inst, cfg.N)
	if !ok {
		return nil, fmt.Errorf("%w: N=%d too small for %d commodities", ErrBadConfig, cfg.N, inst.NumCommodities())
	}

	if cfg.InitialFlow != nil {
		if err := inst.Feasible(cfg.InitialFlow, 1e-9); err != nil {
			return nil, fmt.Errorf("%w: initial flow: %v", ErrBadConfig, err)
		}
	}
	nPaths := inst.NumPaths()
	s.counts = make([]int64, nPaths)
	s.active = make([]int64, nPaths)
	s.landed = make([]int64, nPaths)
	s.weights = make([]float64, inst.NumCommodities())
	for i := range perComm {
		s.weights[i] = inst.Commodity(i).Demand / float64(perComm[i])
		lo, _ := inst.CommodityRange(i)
		np := inst.NumCommodityPaths(i)
		ni := perComm[i]
		if cfg.InitialFlow == nil {
			// Even spread: the count form of dealing agent a to path a mod np.
			base, extra := ni/int64(np), ni%int64(np)
			for p := 0; p < np; p++ {
				s.counts[lo+p] = base
				if int64(p) < extra {
					s.counts[lo+p]++
				}
			}
			continue
		}
		// Proportional placement: floor per path, drift onto the first path
		// (identical to the per-agent placement loop).
		demand := inst.Commodity(i).Demand
		var placed int64
		for p := 0; p < np; p++ {
			n := int64(math.Floor(cfg.InitialFlow[lo+p] / demand * float64(ni)))
			if n > ni-placed {
				n = ni - placed
			}
			s.counts[lo+p] = n
			placed += n
		}
		s.counts[lo] += ni - placed
	}
	return s, nil
}

// Counts returns a copy of the current per-path agent counts.
func (s *Sim) Counts() []int64 {
	return append([]int64(nil), s.counts...)
}

// EmpiricalFlow returns the current empirical flow vector (agent counts
// times agent weights).
func (s *Sim) EmpiricalFlow() flow.Vector {
	f := make(flow.Vector, s.inst.NumPaths())
	s.empiricalInto(f)
	return f
}

// empiricalInto writes the current empirical flow into f, reusing the
// caller's buffer.
func (s *Sim) empiricalInto(f flow.Vector) {
	for g, c := range s.counts {
		f[g] = float64(c) * s.weights[s.inst.CommodityOf(g)]
	}
}
