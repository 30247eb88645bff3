package dynamics

import (
	"context"
	"fmt"
	"math"

	"wardrop/internal/flow"
)

// RunShape is the part of a run every engine shares: the (δ,ε) round
// accounting of Theorems 6 and 7 with its satisfied-streak stop, trajectory
// recording, the phase observer and the scratch workspace. Every engine's
// configuration embeds it, and the phase driver (Driver, Loop) is its one
// reader.
type RunShape struct {
	// Delta and Eps parameterise the (δ,ε)-equilibrium round accounting of
	// Theorems 6 and 7. If Delta <= 0 accounting is disabled.
	Delta float64
	Eps   float64
	// Weak selects the weak (δ,ε) metric (Definition 4, vs. commodity
	// average) instead of the strict one (Definition 3, vs. commodity min).
	Weak bool
	// StopAfterSatisfiedStreak stops the run once this many consecutive
	// phases started at the configured approximate equilibrium (0 disables).
	StopAfterSatisfiedStreak int

	// RecordEvery records a trajectory sample every k phases (0 disables
	// trajectory recording; endpoints are always in the Result).
	RecordEvery int

	// Observer, if non-nil, observes every phase start and may stop the run;
	// see Observer. Compose several with MultiObserver.
	Observer Observer

	// Workspace, if non-nil, supplies every scratch buffer of the run (it is
	// Reset at entry, so one workspace serves any number of sequential runs
	// without reallocating). Nil allocates privately. See flow.Workspace for
	// the reuse contract.
	Workspace *flow.Workspace
}

// Validate rejects a run no engine can execute: a phase length or horizon
// that is not positive and finite, a negative RecordEvery, a negative Eps
// with accounting enabled, or a negative satisfied streak. period is the
// length Loop advances each phase by — the board period T, or the fresh
// dynamics' step. Errors wrap the caller's bad-config sentinel, so each
// package keeps its own error identity while every engine accepts exactly
// the same run shapes.
func (r RunShape) Validate(sentinel error, period, horizon float64) error {
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return fmt.Errorf("%w: horizon %g must be positive and finite", sentinel, horizon)
	}
	if !(period > 0) || math.IsInf(period, 1) {
		return fmt.Errorf("%w: update period %g must be positive and finite", sentinel, period)
	}
	if r.RecordEvery < 0 {
		return fmt.Errorf("%w: record-every %d must be >= 0", sentinel, r.RecordEvery)
	}
	if r.Delta > 0 && r.Eps < 0 {
		return fmt.Errorf("%w: eps %g must be >= 0 when delta > 0", sentinel, r.Eps)
	}
	if r.StopAfterSatisfiedStreak < 0 {
		return fmt.Errorf("%w: satisfied streak %d must be >= 0", sentinel, r.StopAfterSatisfiedStreak)
	}
	return nil
}

// Stepper is an engine's own part of a bulletin-board phase; Loop does the
// rest.
type Stepper interface {
	// Board brings the driver's evaluator in line with the current state and
	// returns that state: the flow the board posts at the phase start.
	Board() flow.Vector
	// Advance moves the state through a phase of length tau against the
	// posted path latencies pl. It reports false when ctx ended the phase
	// early.
	Advance(ctx context.Context, tau float64, pl []float64) bool
}

// Driver owns what every engine's phase loop shares: the board evaluator,
// the (δ,ε) round accounting with its streak stop, trajectory recording,
// observer delivery and the Result. Loop runs a Stepper on it; an engine
// with its own clock (the event-driven agents engine) calls Start and
// Finish directly.
type Driver struct {
	inst  *flow.Instance
	ev    *flow.Evaluator
	shape RunShape
	acct  roundAccounting
	// res is allocated apart from the driver, so a Result the caller keeps
	// does not keep the run's evaluator reachable.
	res *Result
}

// NewDriver resets the shape's workspace and compiles the run's board
// evaluator on it.
func NewDriver(inst *flow.Instance, shape RunShape) *Driver {
	shape.Workspace.Reset()
	return &Driver{
		inst:  inst,
		ev:    flow.NewEvaluator(inst, shape.Workspace),
		shape: shape,
		acct:  newRoundAccounting(shape.Delta, shape.Eps, shape.Weak, shape.StopAfterSatisfiedStreak),
		res:   &Result{},
	}
}

// Evaluator returns the board evaluator the engine's Board refreshes.
func (d *Driver) Evaluator() *flow.Evaluator { return d.ev }

// Start is the phase-start step for the state f the evaluator was just
// refreshed on: it classifies the phase for the (δ,ε) accounting, records a
// trajectory sample on the RecordEvery stride and delivers the PhaseInfo to
// the observer. It reports whether the run stops here (the observer asked
// to, or the satisfied streak fired) and then marks the Result stopped.
func (d *Driver) Start(phase int, t float64, f flow.Vector) bool {
	pl := d.ev.PathLatencies()
	phi := d.ev.Potential()
	info := PhaseInfo{Index: phase, Time: t, Flow: f, PathLatencies: pl, Potential: phi}
	streakStop := d.acct.observe(d.inst, &info, d.res)
	if d.shape.RecordEvery > 0 && phase%d.shape.RecordEvery == 0 {
		d.res.Trajectory = append(d.res.Trajectory, Sample{Time: t, Potential: phi, Flow: f.Clone()})
	}
	observerStop := d.shape.Observer != nil && d.shape.Observer.ObservePhase(info)
	if observerStop || streakStop {
		d.res.Stopped = true
	}
	return d.res.Stopped
}

// Finish fills the Result's terminal fields from the state f the evaluator
// was just refreshed on, so FinalPotential matches the reference
// Instance.Potential bit for bit, and returns the Result.
func (d *Driver) Finish(f flow.Vector, elapsed float64, phases int) *Result {
	d.res.Final = f.Clone()
	d.res.FinalPotential = d.ev.Potential()
	d.res.Elapsed = elapsed
	d.res.Phases = phases
	return d.res
}

// Loop runs the bulletin-board phase loop: each phase it posts the board
// (s.Board), runs the driver's phase-start step, and advances the state by
// one period against the frozen board, the last phase shortened to end at
// the horizon. Cancellation is checked between phases: when ctx is done the
// partial result accumulated so far is returned together with ctx.Err().
func Loop(ctx context.Context, d *Driver, s Stepper, period, horizon float64) (*Result, error) {
	t := 0.0
	phase := 0
	for ; t < horizon-1e-12; phase++ {
		if err := ctx.Err(); err != nil {
			return d.Finish(s.Board(), t, phase), err
		}
		if d.Start(phase, t, s.Board()) {
			break
		}
		tau := math.Min(period, horizon-t)
		if !s.Advance(ctx, tau, d.ev.PathLatencies()) {
			return d.Finish(s.Board(), t, phase), ctx.Err()
		}
		t += tau
	}
	return d.Finish(s.Board(), t, phase), nil
}
