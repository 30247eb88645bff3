package dynamics

// The paper's Lemma 3 (ΔΦ = ΣU + V, an identity) and Lemma 4 (ΔΦ ≤ V/2
// for an α-smooth policy at the safe period) as a gate over ten instance
// families, every migrator with a smoothness constant, every builtin
// sampler, both frozen-board integrators and two starts.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// lemmaPolicy is one sampler × migrator pairing of the gate.
type lemmaPolicy struct {
	sampler  string
	migrator string
}

// build makes the policy on an instance: every migrator is α-smooth with
// the α it reports on the instance's latency range.
func (lp lemmaPolicy) build(t *testing.T, inst *flow.Instance) policy.Policy {
	t.Helper()
	lmax := inst.LMax()
	var s policy.Sampler
	switch lp.sampler {
	case "uniform":
		s = policy.Uniform{}
	case "proportional":
		s = policy.Proportional{}
	case "boltzmann":
		s = policy.Boltzmann{C: 2 / lmax}
	}
	var m policy.Migrator
	var err error
	switch lp.migrator {
	case "linear":
		m, err = policy.NewLinear(lmax)
	case "alpha-linear":
		m, err = policy.NewAlphaLinear(2 / lmax)
	case "quadratic":
		m = policy.Quadratic{AlphaParam: 1 / lmax, LMax: lmax}
	case "relative-gain":
		m, err = policy.NewRelativeGain(1, lmax/4)
	}
	if err != nil {
		t.Fatal(err)
	}
	return policy.Policy{Sampler: s, Migrator: m}
}

// skewed puts 90% of each commodity's demand on its path with the highest
// free-flow latency and spreads the rest evenly.
func skewed(inst *flow.Instance) flow.Vector {
	f := make(flow.Vector, inst.NumPaths())
	free := inst.PathLatencies(make(flow.Vector, inst.NumPaths()))
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, hi := inst.CommodityRange(i)
		d := inst.Commodity(i).Demand
		worst := lo
		for g := lo; g < hi; g++ {
			f[g] = 0.1 * d / float64(hi-lo)
			if free[g] > free[worst] {
				worst = g
			}
		}
		f[worst] += 0.9 * d
	}
	return f
}

func TestLemma3And4Accounting(t *testing.T) {
	type family struct {
		name   string
		build  func() (*flow.Instance, error)
		phases int
		// full crosses every policy, integrator and start; otherwise the
		// family runs the four-case cover below.
		full bool
	}
	families := []family{
		{"pigou", topo.Pigou, 30, true},
		{"braess", topo.Braess, 30, true},
		{"links8", func() (*flow.Instance, error) { return topo.LinearParallelLinks(8) }, 30, true},
		{"grid3", func() (*flow.Instance, error) { return topo.Grid(3) }, 30, true},
		{"layered", func() (*flow.Instance, error) { return topo.LayeredRandom(3, 3, 42) }, 30, true},
		{"multi", func() (*flow.Instance, error) { return topo.MultiCommodityParallel(3, 4) }, 30, true},
		{"sparse", func() (*flow.Instance, error) { return topo.SparseRandom(120, 3, 3, 12, 7) }, 30, false},
		{"links64", func() (*flow.Instance, error) { return topo.LinearParallelLinks(64) }, 30, false},
		{"grid5", func() (*flow.Instance, error) { return topo.Grid(5) }, 20, false},
		{"grid6", func() (*flow.Instance, error) { return topo.Grid(6) }, 10, false},
	}
	type run struct {
		pol   lemmaPolicy
		integ Integrator
		start string
	}
	var full []run
	for _, m := range []string{"linear", "alpha-linear", "quadratic", "relative-gain"} {
		for _, s := range []string{"uniform", "proportional", "boltzmann"} {
			for _, integ := range []Integrator{RK4, Uniformization} {
				for _, start := range []string{"uniform", "skewed"} {
					full = append(full, run{lemmaPolicy{s, m}, integ, start})
				}
			}
		}
	}
	// cover takes every migrator, sampler, integrator and start at least
	// once.
	cover := []run{
		{lemmaPolicy{"proportional", "linear"}, RK4, "skewed"},
		{lemmaPolicy{"uniform", "alpha-linear"}, Uniformization, "uniform"},
		{lemmaPolicy{"boltzmann", "quadratic"}, Uniformization, "skewed"},
		{lemmaPolicy{"proportional", "relative-gain"}, RK4, "uniform"},
	}
	for _, fam := range families {
		inst, err := fam.build()
		if err != nil {
			t.Fatal(err)
		}
		runs := cover
		if fam.full {
			runs = full
		}
		for _, r := range runs {
			name := fmt.Sprintf("%s/%s+%s/%v/%s", fam.name, r.pol.sampler, r.pol.migrator, r.integ, r.start)
			t.Run(name, func(t *testing.T) {
				pol := r.pol.build(t, inst)
				safeT, err := policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
				if err != nil {
					t.Fatal(err)
				}
				f0 := inst.UniformFlow()
				if r.start == "skewed" {
					f0 = skewed(inst)
				}
				acct := NewAccountant(inst)
				cfg := Config{
					Policy:       pol,
					UpdatePeriod: safeT,
					Horizon:      float64(fam.phases) * safeT,
					Integrator:   r.integ,
					RunShape:     RunShape{Observer: acct},
				}
				if _, err := Run(context.Background(), inst, cfg, f0); err != nil {
					t.Fatal(err)
				}
				if len(acct.Accounts) < fam.phases-1 {
					t.Fatalf("%d accounted phases, want %d", len(acct.Accounts), fam.phases-1)
				}
				checkLemmas(t, acct, inst.Potential(f0))
			})
		}
	}
}

// checkLemmas asserts, phase by phase, Lemma 3's identity to 1e-9 of the
// phase's |ΔΦ|, Lemma 4's ΔΦ ≤ V/2, a virtual gain V ≤ 0 and that Φ never
// rises, each up to the rounding of Φ itself; phi0 is the start's Φ, the
// run's largest.
func checkLemmas(t *testing.T, acct *Accountant, phi0 float64) {
	t.Helper()
	slack := 1e-13 * math.Max(1, phi0)
	for _, a := range acct.Accounts {
		if r := math.Abs(a.Lemma3Residual()); r > 1e-9*math.Abs(a.DeltaPhi)+slack {
			t.Errorf("phase %d: Lemma 3 residual %g, ΔΦ %g", a.Phase, r, a.DeltaPhi)
		}
		if !a.Lemma4Holds(slack) {
			t.Errorf("phase %d: ΔΦ=%g > V/2=%g", a.Phase, a.DeltaPhi, 0.5*a.VirtualGain)
		}
		if a.VirtualGain > slack {
			t.Errorf("phase %d: positive virtual gain %g", a.Phase, a.VirtualGain)
		}
		if a.DeltaPhi > slack {
			t.Errorf("phase %d: Φ rose by %g", a.Phase, a.DeltaPhi)
		}
	}
}
