package experiments

import (
	"wardrop/internal/report"
	"wardrop/internal/stats"
	"wardrop/internal/topo"
)

// E7Params parameterises the Theorem 6 δ-scaling reproduction.
type E7Params struct {
	// Links is the fixed parallel-link count.
	Links int
	// Deltas are the approximation widths δ to sweep.
	Deltas []float64
	// Eps is the tolerated unsatisfied volume.
	Eps float64
	// Streak is the consecutive-satisfied stop criterion.
	Streak int
	// MaxPhases caps each run.
	MaxPhases int
}

// DefaultE7Params returns the sweep used by the benchmark harness.
func DefaultE7Params() E7Params {
	return E7Params{
		Links:  8,
		Deltas: []float64{0.8, 0.4, 0.2, 0.1, 0.05},
		Eps:    0.1,
		Streak: 50, MaxPhases: 120_000,
	}
}

// RunE7 reproduces Theorem 6's dependence on δ: rounds grow as (ℓmax/δ)² in
// the bound, i.e. exponent −2 in δ. Rows sweep δ at fixed m; the note
// reports the fitted exponent (paper bound shape: ≥ −2, since the bound is
// an upper envelope).
func RunE7(p E7Params) (*report.Table, error) {
	return runE7(p, scalingEngine{})
}

// RunE7Count reproduces E7 on the mean-field count engine at population n,
// seeding the cell of the i-th δ (from 0) with i+1; see RunE7 for the
// experiment's semantics.
func RunE7Count(p E7Params, n int64) (*report.Table, error) {
	return runE7(p, scalingEngine{count: true, n: n})
}

func runE7(p E7Params, on scalingEngine) (*report.Table, error) {
	tbl := &report.Table{
		Title:   on.title("E7 Thm 6", "uniform sampling — unsatisfied rounds vs delta"),
		Columns: []string{"delta", "rounds", "complete", "bound_shape"},
	}
	inst, err := topo.LinearParallelLinks(p.Links)
	if err != nil {
		return nil, on.wrap("E7", err)
	}
	pol, err := uniformLinearFor(inst)
	if err != nil {
		return nil, on.wrap("E7", err)
	}
	t, err := safeT(inst, pol)
	if err != nil {
		return nil, on.wrap("E7", err)
	}
	f0 := inst.SinglePathFlow(p.Links - 1)
	var ds, rounds []float64
	for i, d := range p.Deltas {
		n, complete, err := countUnsatisfiedRounds(on.cell(uint64(i+1)), inst, pol, f0, t, d, p.Eps, false, p.Streak, p.MaxPhases)
		if err != nil {
			return nil, on.wrap("E7", err)
		}
		bound := float64(p.Links) / (p.Eps * t) * (inst.LMax() / d) * (inst.LMax() / d)
		tbl.AddRow(report.F(d), report.I(n), boolCell(complete), report.F(bound))
		ds = append(ds, d)
		rounds = append(rounds, float64(n))
	}
	if fit, err := stats.LogLogSlope(ds, rounds); err == nil {
		tbl.AddNote("fitted exponent of rounds vs delta = %.3f (paper bound shape: -2)", fit.Slope)
	}
	on.note(tbl, "m=%d eps=%g", p.Links, p.Eps)
	return tbl, nil
}
