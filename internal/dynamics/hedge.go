package dynamics

import (
	"context"
	"fmt"
	"math"

	"wardrop/internal/flow"
)

// HedgeConfig parameterises the multiplicative-weights (Hedge) baseline.
type HedgeConfig struct {
	// Eta is the learning rate of the multiplicative update.
	Eta float64
	// UpdatePeriod is the bulletin-board period T; one multiplicative update
	// executes per board refresh.
	UpdatePeriod float64
	// Horizon is the simulated time budget.
	Horizon float64
	// RunShape carries the accounting, recording, observer and workspace
	// settings every engine shares.
	RunShape
}

// RunHedge simulates the no-regret multiplicative-weights baseline discussed
// in the paper's related work (Awerbuch–Kleinberg, Blum–Even-Dar–Ligett): at
// every bulletin-board refresh the whole population applies one Hedge update
//
//	f_P ← r_i · f_P·exp(−η·ℓ̂_P) / Σ_Q f_Q·exp(−η·ℓ̂_Q)
//
// against the posted (stale) latencies. Unlike the paper's Poisson-clocked
// policies this is a synchronous discrete-time dynamics; it serves as the
// online-learning comparator: small η converges (it is a time-discretised
// replicator), large η·β·T overshoots and oscillates just like best
// response. It runs on the shared phase driver, so the RunShape's observer,
// (δ,ε) accounting, streak stop and recording apply as for every engine.
func RunHedge(ctx context.Context, inst *flow.Instance, cfg HedgeConfig, f0 flow.Vector) (*Result, error) {
	if cfg.Eta <= 0 {
		return nil, fmt.Errorf("%w: eta %g must be positive", ErrBadConfig, cfg.Eta)
	}
	if err := cfg.Validate(ErrBadConfig, cfg.UpdatePeriod, cfg.Horizon); err != nil {
		return nil, err
	}
	d, board, err := setup(inst, cfg.RunShape, f0)
	if err != nil {
		return nil, err
	}
	return Loop(ctx, d, &hedge{evalBoard: board, inst: inst, eta: cfg.Eta}, cfg.UpdatePeriod, cfg.Horizon)
}

// hedge applies one multiplicative update per phase.
type hedge struct {
	evalBoard
	inst *flow.Instance
	eta  float64
}

func (s *hedge) Advance(_ context.Context, _ float64, pl []float64) bool {
	f, inst := s.f, s.inst
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, hi := inst.CommodityRange(i)
		// Max-shift the exponent for numeric stability.
		minLat := math.Inf(1)
		for g := lo; g < hi; g++ {
			if pl[g] < minLat {
				minLat = pl[g]
			}
		}
		sum := 0.0
		for g := lo; g < hi; g++ {
			f[g] *= math.Exp(-s.eta * (pl[g] - minLat))
			sum += f[g]
		}
		if sum > 0 {
			scale := inst.Commodity(i).Demand / sum
			for g := lo; g < hi; g++ {
				f[g] *= scale
			}
		}
	}
	return true
}
