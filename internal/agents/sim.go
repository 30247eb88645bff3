// Package agents implements the finite-population counterpart of the fluid
// limit: N agents with independent Poisson activation clocks reroute against
// a shared bulletin board. Within a phase every decision depends only on the
// frozen board and the agent's own current path, so agents are simulated in
// parallel shards (one goroutine each) with a barrier at phase boundaries —
// an exact simulation of the bulletin-board model, not an approximation.
// Comparing its empirical flows against the dynamics package validates that
// the paper's ODE is the N→∞ limit (experiment E10).
package agents

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// Sentinel errors.
var (
	// ErrBadConfig indicates an invalid simulation configuration.
	ErrBadConfig = errors.New("agents: invalid config")
)

// Config parameterises a finite-N stochastic simulation.
type Config struct {
	// N is the total number of agents, split across commodities in
	// proportion to demand (each commodity gets at least one agent). Each
	// agent of commodity i carries weight r_i/n_i flow.
	N int
	// Policy is the rerouting policy.
	Policy policy.Policy
	// UpdatePeriod is the bulletin-board period T (> 0).
	UpdatePeriod float64
	// Horizon is the simulated time budget.
	Horizon float64
	// Seed makes runs reproducible. Runs are deterministic for a fixed
	// (Seed, Workers) pair.
	Seed uint64
	// Workers is the number of simulation goroutines, capped by N (0 = two).
	// It fixes the shard split, and so which RNG stream each agent draws
	// from.
	Workers int
	// InitialFlow, if non-nil, distributes each commodity's agents over its
	// paths proportionally to this (feasible) flow vector instead of the
	// default even spread. Rounding drift lands on the commodity's first
	// path.
	InitialFlow flow.Vector

	// RunShape carries the settings every engine shares. Observers and the
	// (δ,ε) accounting see the empirical flow; the workspace supplies the
	// board latencies, sampling tables and flow buffers.
	dynamics.RunShape
}

// defaultWorkers is the shard count when Config.Workers is 0: a constant, not
// GOMAXPROCS, so a default run gives the same result on every machine.
const defaultWorkers = 2

// Sim is a configured simulation bound to an instance. Create with New, run
// with Run.
type Sim struct {
	inst *flow.Instance
	cfg  Config
	// agent state, sharded: shard s owns agents[s]. Agents never move
	// between shards; only their path index mutates.
	shards [][]agentState
	// weights[i] is the flow carried by one agent of commodity i.
	weights []float64
	// counts[s][g] is shard s's number of agents on global path g.
	counts [][]float64
}

type agentState struct {
	commodity int32
	path      int32 // commodity-local path index
}

// New validates the configuration and distributes agents over shards.
func New(inst *flow.Instance, cfg Config) (*Sim, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("%w: N=%d", ErrBadConfig, cfg.N)
	}
	if cfg.Policy.Sampler == nil || cfg.Policy.Migrator == nil {
		return nil, fmt.Errorf("%w: policy requires sampler and migrator", ErrBadConfig)
	}
	if err := cfg.Validate(ErrBadConfig, cfg.UpdatePeriod, cfg.Horizon); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers
	}
	if cfg.Workers > cfg.N {
		cfg.Workers = cfg.N
	}

	s := &Sim{inst: inst, cfg: cfg}
	perComm, ok := Populations(inst, int64(cfg.N))
	if !ok {
		return nil, fmt.Errorf("%w: N=%d too small for %d commodities", ErrBadConfig, cfg.N, inst.NumCommodities())
	}

	if cfg.InitialFlow != nil {
		if err := inst.Feasible(cfg.InitialFlow, 1e-9); err != nil {
			return nil, fmt.Errorf("%w: initial flow: %v", ErrBadConfig, err)
		}
	}
	s.weights = make([]float64, inst.NumCommodities())
	s.shards = make([][]agentState, cfg.Workers)
	s.counts = make([][]float64, cfg.Workers)
	for w := range s.shards {
		s.shards[w] = make([]agentState, 0, (cfg.N+cfg.Workers-1)/cfg.Workers)
		s.counts[w] = make([]float64, inst.NumPaths())
	}
	// Deal agents round-robin as they are placed — the idx-th placed goes to
	// shard idx mod Workers — so every shard holds a commodity mix.
	w := 0
	deal := func(i, lo, p int) {
		s.shards[w] = append(s.shards[w], agentState{commodity: int32(i), path: int32(p)})
		s.counts[w][lo+p]++
		if w++; w == cfg.Workers {
			w = 0
		}
	}
	for i, pop := range perComm {
		ni := int(pop)
		s.weights[i] = inst.Commodity(i).Demand / float64(ni)
		lo, _ := inst.CommodityRange(i)
		np := inst.NumCommodityPaths(i)
		if cfg.InitialFlow == nil {
			// Spread each commodity's agents evenly over its paths (matching
			// the fluid runs' uniform initial flow as closely as integrality
			// allows).
			for a := 0; a < ni; a++ {
				deal(i, lo, a%np)
			}
			continue
		}
		// Proportional placement: floor per path, drift onto the first path.
		demand := inst.Commodity(i).Demand
		placed := 0
		for p := 0; p < np; p++ {
			n := int(math.Floor(cfg.InitialFlow[lo+p] / demand * float64(ni)))
			for a := 0; a < n && placed < ni; a++ {
				deal(i, lo, p)
				placed++
			}
		}
		for ; placed < ni; placed++ {
			deal(i, lo, 0)
		}
	}
	return s, nil
}

// EmpiricalFlow returns the current empirical flow vector (agent counts
// times agent weights).
func (s *Sim) EmpiricalFlow() flow.Vector {
	f := make(flow.Vector, s.inst.NumPaths())
	s.empiricalInto(f)
	return f
}

// empiricalInto writes the current empirical flow into f, reusing the
// caller's buffer. The accumulation (shard-major, ascending path, zero
// counts skipped) is exactly EmpiricalFlow's, so the reused-buffer value is
// bitwise the allocating one.
func (s *Sim) empiricalInto(f flow.Vector) {
	for g := range f {
		f[g] = 0
	}
	for w := range s.counts {
		for g, c := range s.counts[w] {
			if c != 0 {
				f[g] += c * s.weights[s.inst.CommodityOf(g)]
			}
		}
	}
}

// Populations splits n agents across the instance's commodities in
// proportion to demand, at least one each, with the rounding drift on the
// largest commodity. It reports false when n is too small to leave every
// commodity an agent. The per-agent and count engines both split with it,
// so they put the same weight behind each agent.
func Populations(inst *flow.Instance, n int64) ([]int64, bool) {
	total := inst.TotalDemand()
	perComm := make([]int64, inst.NumCommodities())
	var assigned int64
	for i := range perComm {
		ni := int64(math.Round(float64(n) * inst.Commodity(i).Demand / total))
		if ni < 1 {
			ni = 1
		}
		perComm[i] = ni
		assigned += ni
	}
	largest := 0
	for i := range perComm {
		if perComm[i] > perComm[largest] {
			largest = i
		}
	}
	perComm[largest] += n - assigned
	return perComm, perComm[largest] >= 1
}

// RunContext simulates until the horizon (or an observer stop) and returns
// the result. The Result's Phases/Trajectory/UnsatisfiedPhases semantics
// match the dynamics package. Cancellation is checked between phases: when
// ctx is done the partial result accumulated so far is returned together
// with ctx.Err().
//
// Board refreshes run on the compiled flow.Evaluator kernel: because a
// phase only moves agents between a few paths, the refresh diffs the
// empirical flow against the previous phase and applies an incremental
// update touching only the affected edges and dependent paths (falling
// back to a full evaluation when the phase churned most of the strategy
// space). Both modes are bit-identical to the full reference evaluation,
// so the board — and hence every sampled decision — is unchanged.
func (s *Sim) RunContext(ctx context.Context) (*dynamics.Result, error) {
	d := dynamics.NewDriver(s.inst, s.cfg.RunShape)
	r := &batch{
		Sim:   s,
		board: NewBoard(s.inst, d.Evaluator(), s.cfg.Workspace, s.cfg.Policy.Sampler),
		rngs:  make([]*RNG, s.cfg.Workers),
	}
	for w := range r.rngs {
		r.rngs[w] = NewRNG(s.cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(w+1)))
	}
	return dynamics.Loop(ctx, d, r, s.cfg.UpdatePeriod, s.cfg.Horizon)
}

// batch is one batched run: the sharded agents, the board and one RNG
// stream per shard.
type batch struct {
	*Sim
	board *Board
	rngs  []*RNG
}

// Board posts the current empirical flow.
func (r *batch) Board() flow.Vector {
	r.empiricalInto(r.board.Flow)
	return r.board.Post()
}

// Advance fills the sampling tables from the board and runs every shard
// through the phase. Shards bail between agents once ctx is done, so even a
// single giant phase (Horizon <= UpdatePeriod, large N) stays
// interruptible; a phase that completed despite a late cancellation counts
// normally, and the driver reports the cancellation at the next phase
// boundary, matching the fluid engine.
func (r *batch) Advance(ctx context.Context, tau float64, pl []float64) bool {
	r.board.FillTables(pl)
	tabs := r.board.Tables
	if r.cfg.Workers == 1 {
		// Single-worker runs (the sweep engine's per-task default) stay on
		// this goroutine: no spawn, no barrier, no per-phase allocation —
		// and the same RNG stream as the spawned form.
		return r.runShard(ctx, 0, r.rngs[0], pl, tabs, tau)
	}
	var (
		wg      sync.WaitGroup
		aborted atomic.Bool
	)
	for w := 0; w < r.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if !r.runShard(ctx, w, r.rngs[w], pl, tabs, tau) {
				aborted.Store(true)
			}
		}(w)
	}
	wg.Wait()
	return !aborted.Load()
}

// Board is the empirical bulletin board of the two stochastic engines (this
// package's and the meanfield count engine): the phase-start empirical flow,
// the diff-and-refresh that keeps the run's evaluator on it, and the
// per-commodity sampling tables derived from what it posts. Sharing it keeps
// the engines' boards and sampling identical.
type Board struct {
	// Flow is the empirical flow the board posts. The engine writes it
	// before Post, and it stays unchanged while the phase runs.
	Flow flow.Vector
	// Tables[i] is commodity i's n_i×n_i row-major sampling table (row =
	// origin), filled by FillTables once per phase and read-only while the
	// phase runs.
	Tables [][]float64

	inst    *flow.Instance
	ev      *flow.Evaluator
	prev    []float64
	changed []int
	sampler policy.Sampler
	shared  bool
}

// NewBoard carves the board's buffers from ws (nil allocates privately).
func NewBoard(inst *flow.Instance, ev *flow.Evaluator, ws *flow.Workspace, sampler policy.Sampler) *Board {
	n := inst.NumPaths()
	b := &Board{
		Flow:    ws.Floats(n),
		Tables:  make([][]float64, inst.NumCommodities()),
		inst:    inst,
		ev:      ev,
		prev:    ws.Floats(n),
		changed: make([]int, 0, n),
		sampler: sampler,
		shared:  policy.OriginInvariant(sampler),
	}
	for i := range b.Tables {
		k := inst.NumCommodityPaths(i)
		b.Tables[i] = ws.Floats(k * k)
	}
	return b
}

// Post diffs Flow against the previous post, applies the (incremental when
// sparse) kernel update, and returns Flow.
func (b *Board) Post() flow.Vector {
	cs := b.changed[:0]
	for g := range b.Flow {
		if b.Flow[g] != b.prev[g] {
			cs = append(cs, g)
		}
	}
	b.changed = cs
	b.ev.Refresh(b.Flow, cs...)
	copy(b.prev, b.Flow)
	return b.Flow
}

// FillTables fills the sampling tables from the posted flow and path
// latencies pl. With an origin-invariant (shared) sampler one row is
// computed per commodity and copied across origins instead of re-deriving
// it n times.
func (b *Board) FillTables(pl []float64) {
	for i, tab := range b.Tables {
		lo, hi := b.inst.CommodityRange(i)
		n := hi - lo
		flows := b.Flow[lo:hi]
		lats := pl[lo:hi]
		if b.shared && n > 0 {
			b.sampler.Probabilities(0, flows, lats, tab[:n])
			for origin := 1; origin < n; origin++ {
				copy(tab[origin*n:(origin+1)*n], tab[:n])
			}
			continue
		}
		for origin := 0; origin < n; origin++ {
			b.sampler.Probabilities(origin, flows, lats, tab[origin*n:(origin+1)*n])
		}
	}
}

// runShard advances one shard through a phase of length tau against the
// posted path latencies pl. Every agent activates Poisson(tau) times; each
// activation samples a path from the board-derived table and migrates with
// the policy's probability computed on board latencies. The shard checks
// ctx every ctxCheckEvents activation events (like the event-driven engine,
// and never before the first, so short phases always complete) and reports
// whether it finished the phase; the per-shard counts remain consistent at
// whatever activation it stopped at.
func (s *Sim) runShard(ctx context.Context, w int, rng *RNG, pl []float64, probTab [][]float64, tau float64) bool {
	shard := s.shards[w]
	counts := s.counts[w]
	mig := s.cfg.Policy.Migrator
	// Every agent draws Poisson(tau): compute its e^-tau once per phase.
	l := math.Exp(-tau)
	events := 0
	for idx := range shard {
		a := &shard[idx]
		k := rng.poisson(tau, l)
		if k == 0 {
			continue
		}
		i := int(a.commodity)
		lo, _ := s.inst.CommodityRange(i)
		n := s.inst.NumCommodityPaths(i)
		lats := pl[lo : lo+n]
		for act := 0; act < k; act++ {
			if events > 0 && events%ctxCheckEvents == 0 && ctx.Err() != nil {
				return false
			}
			events++
			origin := int(a.path)
			row := probTab[i][origin*n : (origin+1)*n]
			q := policy.SampleIndex(row, rng.Float64())
			if q == origin {
				continue
			}
			p := mig.Probability(lats[origin], lats[q])
			if p > 0 && rng.Float64() < p {
				counts[lo+origin]--
				counts[lo+q]++
				a.path = int32(q)
			}
		}
	}
	return true
}
