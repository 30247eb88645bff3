package dynamics

import (
	"context"
	"math"

	"wardrop/internal/flow"
)

// BestResponseConfig parameterises the best-response dynamics run.
type BestResponseConfig struct {
	// UpdatePeriod is the bulletin-board period T (> 0).
	UpdatePeriod float64
	// Horizon is the simulated time budget.
	Horizon float64
	// RunShape carries the accounting, recording, observer and workspace
	// settings every engine shares.
	RunShape
}

// RunBestResponse integrates the best-response differential inclusion under
// stale information (Eq. 4): within each phase every activated agent adopts
// the board's minimum-latency path b, so the state relaxes exponentially,
// f(t̂+τ) = b + (f(t̂) − b)·e^{−τ}. This closed form is exact — no numeric
// integration error — which is what makes the §3.2 oscillation reproduction
// sharp. Ties in the board's shortest path break towards the lowest global
// path index, a selection of the inclusion's right-hand side.
//
// Cancellation is checked between phases: when ctx is done the partial
// result accumulated so far is returned together with ctx.Err().
func RunBestResponse(ctx context.Context, inst *flow.Instance, cfg BestResponseConfig, f0 flow.Vector) (*Result, error) {
	if err := cfg.Validate(ErrBadConfig, cfg.UpdatePeriod, cfg.Horizon); err != nil {
		return nil, err
	}
	d, board, err := setup(inst, cfg.RunShape, f0)
	if err != nil {
		return nil, err
	}
	s := &bestResponse{evalBoard: board, inst: inst, b: cfg.Workspace.Floats(inst.NumPaths())}
	return Loop(ctx, d, s, cfg.UpdatePeriod, cfg.Horizon)
}

// bestResponse relaxes the state towards the board's best response b.
type bestResponse struct {
	evalBoard
	inst *flow.Instance
	b    flow.Vector
}

func (s *bestResponse) Advance(_ context.Context, tau float64, pl []float64) bool {
	f, b := s.f, s.b
	s.inst.BestResponseInto(pl, b)
	decay := math.Exp(-tau)
	for i := range f {
		f[i] = b[i] + (f[i]-b[i])*decay
	}
	return true
}

// TwoLinkOscillation returns the paper's §3.2 closed-form predictions for
// best response on two parallel links with latency ℓ(x) = max{0, β(x−½)} and
// board period T:
//
//	f1Start — the initial share 1/(e^{−T}+1) that makes the orbit periodic,
//	amplitude — the per-round latency deviation X = β(1−e^{−T})/(2e^{−T}+2),
//	maxPeriod — the largest T keeping X ≤ eps: ln((1+2ε/β)/(1−2ε/β)).
//
// maxPeriod is +Inf when eps ≥ β/2 (the oscillation cannot exceed eps).
func TwoLinkOscillation(beta, period, eps float64) (f1Start, amplitude, maxPeriod float64) {
	e := math.Exp(-period)
	f1Start = 1 / (e + 1)
	amplitude = beta * (1 - e) / (2*e + 2)
	if 2*eps/beta >= 1 {
		maxPeriod = math.Inf(1)
	} else {
		maxPeriod = math.Log((1 + 2*eps/beta) / (1 - 2*eps/beta))
	}
	return f1Start, amplitude, maxPeriod
}
