package meanfield

import (
	"context"
	"math"

	"wardrop/internal/agents"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
)

// Run simulates until the horizon (or an observer stop) and returns the
// result.
func (s *Sim) Run() (*dynamics.Result, error) {
	return s.RunContext(context.Background())
}

// RunContext simulates until the horizon (or an observer stop) and returns
// the result. The Result's Phases/Trajectory/UnsatisfiedPhases semantics
// match the dynamics package, and cancellation is checked between phases
// with the partial result returned alongside ctx.Err() — the same contract
// as every other engine.
//
// Board refreshes run on the compiled flow.Evaluator kernel with the same
// incremental diff update as the per-agent engine, and all per-phase scratch
// comes from the run's workspace, so phases are allocation-free after the
// first.
func (s *Sim) RunContext(ctx context.Context) (*dynamics.Result, error) {
	d := dynamics.NewDriver(s.inst, s.cfg.RunShape)
	r := &countRun{
		Sim:   s,
		board: agents.NewBoard(s.inst, d.Evaluator(), s.cfg.Workspace, s.cfg.Policy.Sampler),
		rates: make([][]float64, s.inst.NumCommodities()),
		rng:   NewRNG(s.cfg.Seed),
	}
	for i := range r.rates {
		n := s.inst.NumCommodityPaths(i)
		r.rates[i] = s.cfg.Workspace.Floats(n * n)
	}
	return dynamics.Loop(ctx, d, r, s.cfg.UpdatePeriod, s.cfg.Horizon)
}

// countRun is one run: the counts, the board, the per-phase migration
// rates and the RNG stream.
type countRun struct {
	*Sim
	board *agents.Board
	// rates[i] is the n_i×n_i row-major (row = origin) one-activation
	// migration probability to each destination: sampling probability ×
	// migration acceptance. The diagonal stays zero — staying is the row's
	// complement.
	rates [][]float64
	rng   *RNG
}

// Board posts the current empirical flow.
func (r *countRun) Board() flow.Vector {
	r.empiricalInto(r.board.Flow)
	return r.board.Post()
}

// Advance fills the sampling tables and migration rates from the board and
// samples the phase-end counts.
func (r *countRun) Advance(_ context.Context, tau float64, pl []float64) bool {
	r.board.FillTables(pl)
	r.fillRates(pl)
	r.advancePhase(r.rng, r.rates, tau)
	return true
}

// fillRates derives the one-activation migration rates from the board's
// sampling tables and the path latencies pl: rates[i][p·n+q] = P(sample
// q)·P(accept the migration) for q ≠ p.
func (r *countRun) fillRates(pl []float64) {
	mig := r.cfg.Policy.Migrator
	for i, tab := range r.board.Tables {
		lo, hi := r.inst.CommodityRange(i)
		n := hi - lo
		lats := pl[lo:hi]
		for p := 0; p < n; p++ {
			row := tab[p*n : (p+1)*n]
			out := r.rates[i][p*n : (p+1)*n]
			for q := 0; q < n; q++ {
				if q == p || row[q] <= 0 {
					out[q] = 0
					continue
				}
				out[q] = row[q] * mig.Probability(lats[p], lats[q])
			}
		}
	}
}

// advancePhase samples the phase-end counts for a phase of length tau. Each
// agent activates K ~ Poisson(tau) times; conditioned on the frozen board
// its activations are one-step transitions with the precomputed rates. The
// count form processes activations in rounds: thin each row into the agents
// with K ≥ 1 (one binomial per row), then per round split every active row
// multinomially over its destinations and thin the survivors by the Poisson
// tail ratio P(K ≥ r+1)/P(K ≥ r), until nobody has activations left. The
// expected round count is the maximum of N Poisson(tau) draws — O(log N /
// log log N) — so phase cost is essentially population-independent.
func (s *Sim) advancePhase(rng *RNG, rates [][]float64, tau float64) {
	q1 := -math.Expm1(-tau) // P(K >= 1)
	if q1 <= 0 {
		return
	}
	anyActive := false
	for g, c := range s.counts {
		if c == 0 {
			continue
		}
		a := rng.Binomial(c, q1)
		s.counts[g] = c - a
		s.active[g] = a
		anyActive = anyActive || a > 0
	}
	// The Poisson pmf is tracked in log space so large tau (where e^-tau
	// underflows) still yields correct tail ratios.
	logTau := math.Log(tau)
	logPmf := -tau // log P(K = 0)
	qr := q1       // P(K >= r) for the current round r
	for r := int64(1); anyActive; r++ {
		// One activation round: multinomial-split each active row over its
		// migration destinations; the un-migrated remainder stays put. The
		// conditional-binomial chain skips zero-rate destinations, so a round
		// costs one Binomial per reachable improvement, not per path pair.
		for i := range rates {
			lo, hi := s.inst.CommodityRange(i)
			n := hi - lo
			for p := 0; p < n; p++ {
				a := s.active[lo+p]
				if a == 0 {
					continue
				}
				s.active[lo+p] = 0
				row := rates[i][p*n : (p+1)*n]
				rem := a
				remP := 1.0
				for q := 0; q < n && rem > 0 && remP > 0; q++ {
					pq := row[q]
					if pq <= 0 {
						continue
					}
					x := rng.Binomial(rem, pq/remP)
					s.landed[lo+q] += x
					rem -= x
					remP -= pq
				}
				s.landed[lo+p] += rem
			}
		}
		// Thin into round r+1 by the activation-count tail ratio.
		logPmf += logTau - math.Log(float64(r))
		qNext := qr - math.Exp(logPmf)
		if qNext < 0 {
			qNext = 0
		}
		ratio := 0.0
		if qr > 0 {
			ratio = qNext / qr
		}
		anyActive = false
		for g, a := range s.landed {
			if a == 0 {
				continue
			}
			s.landed[g] = 0
			keep := rng.Binomial(a, ratio)
			s.counts[g] += a - keep
			s.active[g] = keep
			anyActive = anyActive || keep > 0
		}
		qr = qNext
	}
}
