// Package experiments regenerates the paper's quantitative artefacts: the
// §3.2 best-response oscillation closed forms (E1, E2), the convergence
// guarantees of Theorem 2 and Corollary 5 (E3, E5), the potential accounting
// of Lemmas 3 and 4 (E4), the convergence-time scaling laws of Theorems 6
// and 7 (E6–E8), the smoothed-best-response sweep (E9) and the fluid-limit
// validity check backing the whole model (E10). Each experiment returns a
// report.Table whose rows are the series a figure would plot; the root-level
// benchmark harness has one bench per experiment.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"wardrop/internal/dynamics"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/report"
	"wardrop/internal/solver"
)

// ErrExperiment wraps failures inside an experiment run.
var ErrExperiment = errors.New("experiments: run failed")

func wrap(id string, err error) error {
	return fmt.Errorf("%w: %s: %v", ErrExperiment, id, err)
}

// replicatorFor builds the replicator policy (proportional + linear) sized to
// the instance's ℓmax.
func replicatorFor(inst *flow.Instance) (policy.Policy, error) {
	return policy.Replicator(inst.LMax())
}

// uniformLinearFor builds the uniform + linear policy sized to the
// instance's ℓmax.
func uniformLinearFor(inst *flow.Instance) (policy.Policy, error) {
	return policy.UniformLinear(inst.LMax())
}

// safeT returns the paper's safe update period for the policy on the
// instance.
func safeT(inst *flow.Instance, pol policy.Policy) (float64, error) {
	return policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
}

// phiStar solves the instance's optimal potential with the reference solver.
func phiStar(inst *flow.Instance) (float64, error) {
	res, err := solver.SolveEquilibrium(inst, solver.Options{RelGapTol: 1e-10})
	if err != nil {
		return 0, err
	}
	return res.Potential, nil
}

// exactFluid is the engine every fluid-limit experiment dispatches through:
// the frozen-board uniformization scheme is exact, so measured artefacts
// carry no integration error.
var exactFluid = engine.Fluid{Integrator: dynamics.Uniformization}

// countUnsatisfiedRounds runs the stale dynamics on eng from f0 and returns
// the number of phases not starting at the configured approximate
// equilibrium, stopping once `streak` consecutive phases are satisfied (or at
// maxPhases). The second return reports whether the streak stop fired (i.e.
// the count is complete rather than truncated).
func countUnsatisfiedRounds(eng engine.Engine, inst *flow.Instance, pol policy.Policy, f0 flow.Vector,
	T, delta, eps float64, weak bool, streak, maxPhases int) (int, bool, error) {
	res, err := engine.Run(context.Background(), engine.Scenario{
		Engine:                   eng,
		Instance:                 inst,
		Policy:                   pol,
		UpdatePeriod:             T,
		InitialFlow:              f0,
		Horizon:                  float64(maxPhases) * T,
		Delta:                    delta,
		Eps:                      eps,
		Weak:                     weak,
		StopAfterSatisfiedStreak: streak,
	})
	if err != nil {
		return 0, false, err
	}
	return res.UnsatisfiedPhases, res.Stopped, nil
}

// CountPopulation is the default population for E6–E8 on the count engine:
// ≥ 1000× the largest population the per-agent engine runs anywhere in this
// repository (3200 in E10, 2000 in the equivalence tests). A count phase
// costs O(paths) whatever the population, and the verdicts (rounds below the
// paper bound, growth linear in m for uniform sampling, flat in m for
// proportional sampling) must survive the sampling noise.
const CountPopulation = 4_000_000

// scalingEngine is the engine E6–E8 run their cells on: the exact fluid
// engine, or with count set the mean-field count engine at population n,
// seeded per cell.
type scalingEngine struct {
	count bool
	n     int64
}

func (s scalingEngine) cell(seed uint64) engine.Engine {
	if !s.count {
		return exactFluid
	}
	return engine.Count{N: s.n, Seed: seed}
}

// title names the experiment, tagging count-engine tables.
func (s scalingEngine) title(exp, what string) string {
	if !s.count {
		return exp + ": " + what
	}
	return exp + " (count engine): " + what
}

// wrap tags a failure with the experiment and, on the count engine, "/count".
func (s scalingEngine) wrap(exp string, err error) error {
	if s.count {
		exp += "/count"
	}
	return wrap(exp, err)
}

// note adds the table's parameter note, prefixed with the population on the
// count engine.
func (s scalingEngine) note(tbl *report.Table, format string, args ...any) {
	if s.count {
		format = "count engine, N=%d; " + format
		args = append([]any{s.n}, args...)
	}
	tbl.AddNote(format, args...)
}

// potentialSeries runs the stale dynamics and returns the potential at each
// phase start.
func potentialSeries(inst *flow.Instance, pol policy.Policy, f0 flow.Vector, T float64, phases int) ([]float64, error) {
	var phis []float64
	_, err := engine.Run(context.Background(), engine.Scenario{
		Engine:       exactFluid,
		Instance:     inst,
		Policy:       pol,
		UpdatePeriod: T,
		InitialFlow:  f0,
		Horizon:      float64(phases) * T,
	}, engine.WithObserver(dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
		phis = append(phis, info.Potential)
		return false
	})))
	if err != nil {
		return nil, err
	}
	return phis, nil
}
