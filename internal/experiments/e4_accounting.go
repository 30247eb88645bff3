package experiments

import (
	"context"
	"math"

	"wardrop/internal/dynamics"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/report"
	"wardrop/internal/topo"
)

// E4Params parameterises the Lemma 3 / Lemma 4 accounting reproduction.
type E4Params struct {
	// Phases is the number of phases to account per instance.
	Phases int
}

// DefaultE4Params returns the configuration used by the benchmark harness.
func DefaultE4Params() E4Params { return E4Params{Phases: 120} }

// RunE4 reproduces the paper's potential accounting. For the replicator at
// the safe period on several instances it verifies per phase:
//
//	Lemma 3 (identity):  Φ(f) − Φ(f̂) = Σ_e U_e + V(f̂,f), residual ≈ 0,
//	Lemma 4 (inequality): ΔΦ ≤ ½·V ≤ 0.
func RunE4(p E4Params) (*report.Table, error) {
	tbl := &report.Table{
		Title:   "E4 Lemmas 3+4: potential accounting per phase at the safe period",
		Columns: []string{"topology", "phases", "max|L3 residual|", "L4 holds", "min V", "max dPhi"},
	}
	cases := []struct {
		name string
		mk   func() (*flow.Instance, error)
	}{
		{"pigou", topo.Pigou},
		{"braess", topo.Braess},
		{"links8", func() (*flow.Instance, error) { return topo.LinearParallelLinks(8) }},
	}
	for _, c := range cases {
		inst, err := c.mk()
		if err != nil {
			return nil, wrap("E4", err)
		}
		pol, err := replicatorFor(inst)
		if err != nil {
			return nil, wrap("E4", err)
		}
		t, err := safeT(inst, pol)
		if err != nil {
			return nil, wrap("E4", err)
		}
		acct := dynamics.NewAccountant(inst)
		_, err = engine.Run(context.Background(), engine.Scenario{
			Engine:       exactFluid,
			Instance:     inst,
			Policy:       pol,
			UpdatePeriod: t,
			InitialFlow:  inst.SinglePathFlow(0),
			Horizon:      float64(p.Phases) * t,
		}, engine.WithObserver(acct))
		if err != nil {
			return nil, wrap("E4", err)
		}
		maxResidual, minV, maxDPhi := 0.0, math.Inf(1), math.Inf(-1)
		holds := true
		for _, a := range acct.Accounts {
			maxResidual = math.Max(maxResidual, math.Abs(a.Lemma3Residual()))
			minV = math.Min(minV, a.VirtualGain)
			maxDPhi = math.Max(maxDPhi, a.DeltaPhi)
			if !a.Lemma4Holds(1e-9) {
				holds = false
			}
		}
		tbl.AddRow(
			c.name, report.I(len(acct.Accounts)),
			report.F(maxResidual), boolCell(holds),
			report.F(minV), report.F(maxDPhi),
		)
	}
	tbl.AddNote("paper: error terms U_e eat at most half of the virtual gain when T = 1/(4DaB)")
	return tbl, nil
}
