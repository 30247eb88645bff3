package experiments

import (
	"wardrop/internal/report"
	"wardrop/internal/stats"
	"wardrop/internal/topo"
)

// E6Params parameterises the Theorem 6 path-count scaling reproduction.
type E6Params struct {
	// LinkCounts are the parallel-link counts m = |P| to sweep.
	LinkCounts []int
	// Delta, Eps define the (δ,ε)-equilibrium.
	Delta, Eps float64
	// Streak is the consecutive-satisfied-phase stop criterion.
	Streak int
	// MaxPhases caps each run.
	MaxPhases int
}

// DefaultE6Params returns the sweep used by the benchmark harness.
func DefaultE6Params() E6Params {
	return E6Params{
		LinkCounts: []int{2, 4, 8, 16, 32},
		Delta:      0.2, Eps: 0.1,
		Streak:    50,
		MaxPhases: 60_000,
	}
}

// RunE6 reproduces Theorem 6's dependence on the number of paths: for the
// uniform+linear policy the number of phases not starting at a
// (δ,ε)-equilibrium is O(max_i |P_i| / (εT) · (ℓmax/δ)²) — linear in m on
// parallel-link instances. Rows sweep m; the note reports the fitted
// log-log exponent (paper bound: ≤ 1, i.e. at most linear).
func RunE6(p E6Params) (*report.Table, error) {
	return runE6(p, scalingEngine{})
}

// RunE6Count reproduces E6 on the mean-field count engine at population n,
// seeding the cell of m links with m; see RunE6 for the experiment's
// semantics.
func RunE6Count(p E6Params, n int64) (*report.Table, error) {
	return runE6(p, scalingEngine{count: true, n: n})
}

func runE6(p E6Params, on scalingEngine) (*report.Table, error) {
	tbl := &report.Table{
		Title:   on.title("E6 Thm 6", "uniform sampling — unsatisfied rounds vs path count"),
		Columns: []string{"m", "T", "rounds", "complete", "bound_shape"},
	}
	var ms, rounds []float64
	for _, m := range p.LinkCounts {
		inst, err := topo.LinearParallelLinks(m)
		if err != nil {
			return nil, on.wrap("E6", err)
		}
		pol, err := uniformLinearFor(inst)
		if err != nil {
			return nil, on.wrap("E6", err)
		}
		t, err := safeT(inst, pol)
		if err != nil {
			return nil, on.wrap("E6", err)
		}
		// Start adversarially: all flow on the worst (last) link.
		f0 := inst.SinglePathFlow(m - 1)
		n, complete, err := countUnsatisfiedRounds(on.cell(uint64(m)), inst, pol, f0, t, p.Delta, p.Eps, false, p.Streak, p.MaxPhases)
		if err != nil {
			return nil, on.wrap("E6", err)
		}
		// The paper's bound for this cell, up to its hidden constant:
		// m/(εT)·(ℓmax/δ)².
		bound := float64(m) / (p.Eps * t) * (inst.LMax() / p.Delta) * (inst.LMax() / p.Delta)
		tbl.AddRow(report.I(m), report.F(t), report.I(n), boolCell(complete), report.F(bound))
		ms = append(ms, float64(m))
		rounds = append(rounds, float64(n))
	}
	if fit, err := stats.LogLogSlope(ms, rounds); err == nil {
		tbl.AddNote("fitted exponent of rounds vs m = %.3f (paper bound shape: <= 1, linear)", fit.Slope)
	}
	on.note(tbl, "delta=%g eps=%g; rounds counted until %d consecutive satisfied phases", p.Delta, p.Eps, p.Streak)
	return tbl, nil
}
