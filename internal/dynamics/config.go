// Package dynamics integrates the paper's fluid-limit rerouting dynamics:
// the stale-information ODE (Eq. 3) for two-step sampling/migration policies,
// the fresh-information ODE (Eq. 1, the T→0 limit), and the best-response
// differential inclusion (Eqs. 2 and 4). It also performs the per-phase
// potential accounting of Lemmas 3 and 4 and the round counting of
// Theorems 6 and 7.
package dynamics

import (
	"errors"
	"fmt"
	"math"

	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// Sentinel errors.
var (
	// ErrBadConfig indicates an invalid simulation configuration.
	ErrBadConfig = errors.New("dynamics: invalid config")
	// ErrInfeasibleStart indicates an infeasible initial flow.
	ErrInfeasibleStart = errors.New("dynamics: infeasible initial flow")
)

// Integrator selects the within-phase ODE integration scheme.
type Integrator int

// Within a phase the board is frozen, so the dynamics is linear in f; all
// three schemes integrate that linear system, trading speed for accuracy.
const (
	// Euler is explicit first-order integration.
	Euler Integrator = iota + 1
	// RK4 is classic fourth-order Runge–Kutta (the default).
	RK4
	// Uniformization computes the exact matrix-exponential action via the
	// uniformised Poisson series (exact for the frozen-board linear phase,
	// up to a 1e-14 series tail).
	Uniformization
)

// String names the integrator.
func (i Integrator) String() string {
	switch i {
	case Euler:
		return "euler"
	case RK4:
		return "rk4"
	case Uniformization:
		return "uniformization"
	default:
		return fmt.Sprintf("integrator(%d)", int(i))
	}
}

// Config parameterises a fluid-limit simulation.
type Config struct {
	// Policy is the rerouting policy (sampler + migrator).
	Policy policy.Policy
	// UpdatePeriod is the bulletin-board period T. It must be positive; use
	// RunFresh for the up-to-date-information dynamics.
	UpdatePeriod float64
	// Step is the integrator step. It must be finite; a non-positive step
	// selects the default: T/64 for Run's Euler/RK4 (Uniformization ignores
	// it), 1/256 for RunFresh, where it is also the phase length.
	Step float64
	// Horizon is the simulated time budget (required, > 0).
	Horizon float64
	// Integrator selects the scheme (default RK4).
	Integrator Integrator

	// RunShape carries the accounting, recording, observer and workspace
	// settings every engine shares.
	RunShape
}

// PhaseInfo describes the state at a phase start (a bulletin-board update
// instant). The slices are views into simulator buffers, valid only during
// the observer call; copy them to retain.
type PhaseInfo struct {
	// Index is the phase number, starting at 0.
	Index int
	// Time is the phase start time t̂.
	Time float64
	// Flow is the population state f(t̂).
	Flow flow.Vector
	// PathLatencies are the latencies posted on the board.
	PathLatencies []float64
	// Potential is Φ(f(t̂)).
	Potential float64
	// Unsatisfied is the (weak) δ-unsatisfied volume if accounting is
	// enabled, else 0.
	Unsatisfied float64
	// AtEquilibrium reports whether the phase starts at the configured
	// approximate equilibrium (false when accounting is disabled).
	AtEquilibrium bool
}

// Sample is one recorded trajectory point.
type Sample struct {
	Time      float64
	Potential float64
	Flow      flow.Vector
}

// Result summarises a simulation run.
type Result struct {
	// Final is the flow at the end of the run.
	Final flow.Vector
	// FinalPotential is Φ(Final).
	FinalPotential float64
	// Phases is the number of completed phases.
	Phases int
	// Elapsed is the simulated time actually covered.
	Elapsed float64
	// UnsatisfiedPhases counts phases that did not start at the configured
	// (δ,ε)-equilibrium — the quantity bounded by Theorems 6 and 7.
	UnsatisfiedPhases int
	// Stopped reports whether an observer or satisfied-streak stop fired
	// before the horizon.
	Stopped bool
	// Trajectory holds recorded samples (nil unless RecordEvery > 0).
	Trajectory []Sample
}

// roundAccounting is the per-phase (δ,ε)-equilibrium round accounting of
// Theorems 6 and 7, run by the phase driver for every engine and by
// EquilibriumStopper: classify the phase start, fill the PhaseInfo
// accounting fields, count unsatisfied phases on the Result, and report
// when the satisfied-streak stop fires.
type roundAccounting struct {
	delta, eps float64
	weak       bool
	streakStop int
	streak     int
}

// newRoundAccounting builds the accounting; delta <= 0 disables it.
func newRoundAccounting(delta, eps float64, weak bool, streakStop int) roundAccounting {
	return roundAccounting{delta: delta, eps: eps, weak: weak, streakStop: streakStop}
}

// observe classifies the phase start (mutating info's Unsatisfied and
// AtEquilibrium fields and res.UnsatisfiedPhases) and reports whether the
// satisfied-streak stop fired.
func (a *roundAccounting) observe(inst *flow.Instance, info *PhaseInfo, res *Result) bool {
	if a.delta <= 0 {
		return false
	}
	if a.weak {
		info.Unsatisfied = inst.WeakUnsatisfiedVolume(info.Flow, info.PathLatencies, a.delta)
	} else {
		info.Unsatisfied = inst.UnsatisfiedVolume(info.Flow, info.PathLatencies, a.delta)
	}
	info.AtEquilibrium = info.Unsatisfied <= a.eps
	if info.AtEquilibrium {
		a.streak++
	} else {
		res.UnsatisfiedPhases++
		a.streak = 0
	}
	return a.streakStop > 0 && a.streak >= a.streakStop
}

func (c *Config) validate(stale bool) error {
	if c.Policy.Sampler == nil || c.Policy.Migrator == nil {
		return fmt.Errorf("%w: policy requires sampler and migrator", ErrBadConfig)
	}
	if c.Integrator == 0 {
		c.Integrator = RK4
	}
	switch c.Integrator {
	case Euler, RK4, Uniformization:
	default:
		return fmt.Errorf("%w: unknown integrator %d", ErrBadConfig, int(c.Integrator))
	}
	if math.IsNaN(c.Step) || math.IsInf(c.Step, 0) {
		return fmt.Errorf("%w: step %g must be finite", ErrBadConfig, c.Step)
	}
	if c.Step <= 0 {
		if stale {
			c.Step = c.UpdatePeriod / 64
		} else {
			c.Step = 1.0 / 256
		}
	}
	period := c.UpdatePeriod
	if !stale {
		period = c.Step // each outer step of the fresh dynamics is a phase
	}
	return c.RunShape.Validate(ErrBadConfig, period, c.Horizon)
}
