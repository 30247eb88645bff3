package experiments

import (
	"context"
	"math"

	"wardrop/internal/dynamics"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/report"
	"wardrop/internal/stats"
	"wardrop/internal/topo"
)

// E11Params parameterises the no-regret (Hedge) baseline sweep.
type E11Params struct {
	// Etas are the Hedge learning rates to sweep.
	Etas []float64
	// Phases is the number of board refreshes per run.
	Phases int
	// Beta is the kink slope.
	Beta float64
	// Period is the bulletin-board period T.
	Period float64
}

// DefaultE11Params returns the sweep used by the benchmark harness.
func DefaultE11Params() E11Params {
	return E11Params{
		Etas:   []float64{0.05, 0.2, 1, 5, 25, 125},
		Phases: 600,
		Beta:   8,
		Period: 0.25,
	}
}

// RunE11 sweeps the multiplicative-weights (Hedge) baseline from the
// paper's related work across learning rates on the two-link kink instance
// under the same stale board: small η converges (Hedge is a discretised
// replicator, and no-regret dynamics approach equilibria), while large η
// reproduces exactly the overshoot oscillation that motivates the paper's
// smoothness condition. The comparator row runs the replicator at the safe
// period.
func RunE11(p E11Params) (*report.Table, error) {
	tbl := &report.Table{
		Title:   "E11 related work: Hedge (no-regret) baseline under stale information",
		Columns: []string{"policy", "eta", "phi_final", "flow_dev", "flow_osc_score"},
	}
	inst, err := topo.TwoLinkKink(p.Beta)
	if err != nil {
		return nil, wrap("E11", err)
	}
	f0 := flow.Vector{0.9, 0.1}
	for _, eta := range p.Etas {
		var f1s []float64
		cfg := dynamics.HedgeConfig{
			Eta: eta, UpdatePeriod: p.Period, Horizon: float64(p.Phases) * p.Period,
			RunShape: dynamics.RunShape{Observer: dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
				f1s = append(f1s, info.Flow[0])
				return false
			})},
		}
		res, err := dynamics.RunHedge(context.Background(), inst, cfg, f0)
		if err != nil {
			return nil, wrap("E11", err)
		}
		tbl.AddRow(
			"hedge", report.F(eta),
			report.F(res.FinalPotential),
			report.F(math.Abs(res.Final[0]-0.5)),
			report.F3(stats.OscillationScore(f1s)),
		)
	}
	// Comparator: the paper's replicator at its safe period.
	pol, err := replicatorFor(inst)
	if err != nil {
		return nil, wrap("E11", err)
	}
	tSafe, err := safeT(inst, pol)
	if err != nil {
		return nil, wrap("E11", err)
	}
	var f1s []float64
	res, err := engine.Run(context.Background(), engine.Scenario{
		Engine:       exactFluid,
		Instance:     inst,
		Policy:       pol,
		UpdatePeriod: tSafe,
		InitialFlow:  f0,
		Horizon:      float64(p.Phases) * tSafe,
	}, engine.WithObserver(dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
		f1s = append(f1s, info.Flow[0])
		return false
	})))
	if err != nil {
		return nil, wrap("E11", err)
	}
	tbl.AddRow(
		"replicator@safeT", "-",
		report.F(res.FinalPotential),
		report.F(math.Abs(res.Final[0]-0.5)),
		report.F3(stats.OscillationScore(f1s)),
	)
	tbl.AddNote("small eta converges like the replicator; large eta overshoots the stale board and oscillates")
	return tbl, nil
}
