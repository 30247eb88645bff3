package dynamics

import (
	"context"
	"fmt"

	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// Run integrates the stale-information dynamics (Eq. 3) from f0 under the
// bulletin-board model: at each phase start the board is refreshed from the
// true state, migration rates are frozen against the board for the whole
// phase of length cfg.UpdatePeriod, and the linear within-phase system is
// integrated with the configured scheme.
//
// All per-phase state evaluation runs on the compiled flow.Evaluator kernel
// and every scratch buffer comes from cfg.Workspace (reset at entry), so
// steady-state phases allocate nothing and repeated runs on one workspace
// reuse the same memory.
//
// Cancellation is checked between phases: when ctx is done the partial
// result accumulated so far is returned together with ctx.Err().
func Run(ctx context.Context, inst *flow.Instance, cfg Config, f0 flow.Vector) (*Result, error) {
	if err := cfg.validate(true); err != nil {
		return nil, err
	}
	d, board, err := setup(inst, cfg.RunShape, f0)
	if err != nil {
		return nil, err
	}
	ws := cfg.Workspace
	n := inst.NumPaths()
	s := &fluid{
		evalBoard: board,
		inst:      inst,
		rm:        newRateMatrix(inst, ws, cfg.Policy, orderedMinPaths),
		pol:       cfg.Policy,
		integ:     cfg.Integrator,
		step:      cfg.Step,
		sc:        newRK4Scratch(n, ws),
		uA:        ws.Floats(n),
		uB:        ws.Floats(n),
		uC:        ws.Floats(n),
	}
	return Loop(ctx, d, s, cfg.UpdatePeriod, cfg.Horizon)
}

// setup checks the initial flow, then sets up the run's driver and the
// evaluator board over the run's copy of f0 — the setup every fluid-limit
// engine shares.
func setup(inst *flow.Instance, shape RunShape, f0 flow.Vector) (*Driver, evalBoard, error) {
	if err := inst.Feasible(f0, 1e-9); err != nil {
		return nil, evalBoard{}, fmt.Errorf("%w: %v", ErrInfeasibleStart, err)
	}
	d := NewDriver(inst, shape)
	f := flow.Vector(shape.Workspace.Floats(len(f0)))
	copy(f, f0)
	return d, evalBoard{ev: d.ev, f: f}, nil
}

// evalBoard is the fluid-limit engines' Board: a full evaluator pass over
// the state vector f.
type evalBoard struct {
	ev *flow.Evaluator
	f  flow.Vector
}

// Board evaluates the state on the kernel and returns it.
func (b evalBoard) Board() flow.Vector {
	b.ev.Eval(b.f)
	return b.f
}

// fluid advances the stale-information dynamics: rates frozen against the
// board for the whole phase, integrated with the configured scheme.
type fluid struct {
	evalBoard
	inst       *flow.Instance
	rm         *rateMatrix
	pol        policy.Policy
	integ      Integrator
	step       float64
	sc         *rk4Scratch
	uA, uB, uC []float64
}

func (s *fluid) Advance(_ context.Context, tau float64, pl []float64) bool {
	s.rm.fill(s.pol, s.f, pl)
	switch s.integ {
	case Euler:
		integrateEuler(s.rm.derivative, s.f, tau, s.step, s.uA)
	case RK4:
		integrateRK4(s.rm.derivative, s.f, tau, s.step, s.sc)
	case Uniformization:
		integrateUniformization(s.rm, s.f, tau, s.uA, s.uB, s.uC)
	}
	s.inst.Project(s.f, 1e-9)
	return true
}

// RunFresh integrates the up-to-date-information dynamics (Eq. 1): migration
// rates are recomputed from the true state at every derivative evaluation.
// cfg.UpdatePeriod is ignored; cfg.Step is the reporting granularity and the
// outer step size (each outer step is one "phase" for observers and
// recording). Uniformization is rejected — the fresh system is non-linear.
// Cancellation follows the same partial-result contract as Run.
func RunFresh(ctx context.Context, inst *flow.Instance, cfg Config, f0 flow.Vector) (*Result, error) {
	if err := cfg.validate(false); err != nil {
		return nil, err
	}
	if cfg.Integrator == Uniformization {
		return nil, fmt.Errorf("%w: uniformization requires a frozen board", ErrBadConfig)
	}
	d, board, err := setup(inst, cfg.RunShape, f0)
	if err != nil {
		return nil, err
	}
	ws := cfg.Workspace
	n := inst.NumPaths()
	s := &fresh{
		evalBoard: board,
		inst:      inst,
		rm:        newRateMatrix(inst, ws, cfg.Policy, orderedMinPaths),
		pol:       cfg.Policy,
		integ:     cfg.Integrator,
		df:        ws.Floats(n),
		sc:        newRK4Scratch(n, ws),
	}
	return Loop(ctx, d, s, cfg.Step, cfg.Horizon)
}

// fresh advances the up-to-date-information dynamics by one outer step.
type fresh struct {
	evalBoard
	inst  *flow.Instance
	rm    *rateMatrix
	pol   policy.Policy
	integ Integrator
	df    []float64
	sc    *rk4Scratch
}

// derive recomputes rates from the supplied state before differentiating.
// The evaluator's lazy potential means the inner stage evaluations pay for
// flows and latencies only.
func (s *fresh) derive(state flow.Vector, out []float64) {
	s.ev.Eval(state)
	s.rm.fill(s.pol, state, s.ev.PathLatencies())
	s.rm.derivative(state, out)
}

// Advance takes one integrator step of length h, the whole phase.
func (s *fresh) Advance(_ context.Context, h float64, _ []float64) bool {
	switch s.integ {
	case Euler:
		integrateEuler(s.derive, s.f, h, h, s.df)
	case RK4:
		integrateRK4(s.derive, s.f, h, h, s.sc)
	}
	s.inst.Project(s.f, 1e-9)
	return true
}
