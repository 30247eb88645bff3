package agents

import (
	"context"
	"math"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// ctxCheckEvents is how many activation events the event-driven engine
// processes between context checks — often enough that cancellation is
// prompt even when a whole run fits inside one board phase, rarely enough
// that the check cost vanishes against the per-event RNG work.
const ctxCheckEvents = 1024

// RunEventDrivenContext simulates the same finite-N bulletin-board system
// as RunContext, but with an exact global event clock instead of per-phase
// Poisson batching: the superposition of the N agents' rate-1 Poisson clocks
// is a rate-N Poisson process, so the engine draws Exp(N) inter-activation
// gaps and activates a uniformly random agent at each event, refreshing the
// board whenever the clock crosses a multiple of T.
//
// Both engines sample the same process law (within a phase the board is
// frozen, so the batched engine's per-agent Poisson counts are exactly the
// thinned global process); this engine is the single-threaded reference for
// the clock ablation and for workloads where activation-order detail
// matters. It honours Config.Seed and the RunShape (observer, recording,
// (δ,ε) accounting); Workers is ignored.
//
// ctx is checked at every board refresh and every ctxCheckEvents activation
// events, and when it is done the partial result is returned together with
// ctx.Err().
func (s *Sim) RunEventDrivenContext(ctx context.Context) (*dynamics.Result, error) {
	rng := NewRNG(s.cfg.Seed ^ 0xd1b54a32d192ed03)

	// Flatten the shards into one agent array with cumulative indexing.
	var all []agentState
	for _, shard := range s.shards {
		all = append(all, shard...)
	}
	nAgents := len(all)
	counts := make([]float64, s.inst.NumPaths())
	for _, a := range all {
		counts[s.inst.GlobalIndex(int(a.commodity), int(a.path))]++
	}

	// The driver's phase-start and finish steps run at every board refresh
	// of the event clock; Phases counts the refreshes after the first.
	d := dynamics.NewDriver(s.inst, s.cfg.RunShape)
	b := NewBoard(s.inst, d.Evaluator(), s.cfg.Workspace, s.cfg.Policy.Sampler)
	// post brings the board in line with the current counts: between board
	// refreshes only individually activated agents moved, so the
	// incremental path touches a handful of edges (bit-identical to the
	// full reference evaluation either way).
	post := func() flow.Vector {
		for g := range b.Flow {
			b.Flow[g] = counts[g] * s.weights[s.inst.CommodityOf(g)]
		}
		return b.Post()
	}
	pl := d.Evaluator().PathLatencies()

	t := 0.0
	phase := 0
	if err := ctx.Err(); err != nil {
		return d.Finish(post(), 0, phase), err
	}
	stopped := d.Start(phase, t, post())
	b.FillTables(pl)
	nextBoard := s.cfg.UpdatePeriod
	mig := s.cfg.Policy.Migrator
	for events := 0; !stopped; events++ {
		if events%ctxCheckEvents == 0 {
			if err := ctx.Err(); err != nil {
				return d.Finish(post(), math.Min(t, s.cfg.Horizon), phase), err
			}
		}
		// Exp(N) inter-activation gap.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		gap := -math.Log(u) / float64(nAgents)
		t += gap
		if t >= s.cfg.Horizon {
			t = s.cfg.Horizon
			break
		}
		// Board refreshes strictly between activations (measure-zero ties).
		for nextBoard <= t {
			if err := ctx.Err(); err != nil {
				return d.Finish(post(), nextBoard, phase), err
			}
			phase++
			if stopped = d.Start(phase, nextBoard, post()); stopped {
				break
			}
			b.FillTables(pl)
			nextBoard += s.cfg.UpdatePeriod
		}
		if stopped {
			break
		}
		// Activate a uniformly random agent.
		a := &all[rng.Uint64()%uint64(nAgents)]
		i := int(a.commodity)
		lo, _ := s.inst.CommodityRange(i)
		n := s.inst.NumCommodityPaths(i)
		lats := pl[lo : lo+n]
		origin := int(a.path)
		row := b.Tables[i][origin*n : (origin+1)*n]
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
	return d.Finish(post(), math.Min(t, s.cfg.Horizon), phase), nil
}
