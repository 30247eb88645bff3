// Package engine is the unified front door to the library's simulation
// dynamics. A Scenario declares *what* to simulate — instance, rerouting
// policy, bulletin-board period, initial flow and run shape — while an
// Engine declares *how*: the fluid-limit ODE (stale or fresh information),
// the best-response differential inclusion, or the finite-N stochastic
// agent system. Run(ctx, scenario, opts...) dispatches the scenario to its
// engine with composable observers and context cancellation, so callers
// (sweep campaigns, experiments, CLIs) never special-case the dynamics
// family: a new engine, observer or stop rule is a plug-in, not a fourth
// entry point.
package engine

import (
	"context"
	"errors"
	"fmt"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// Sentinel errors.
var (
	// ErrBadScenario indicates an invalid scenario.
	ErrBadScenario = errors.New("engine: invalid scenario")
	// ErrBadEngine indicates an unknown or misconfigured engine.
	ErrBadEngine = errors.New("engine: invalid engine")
)

// Result is the unified simulation outcome shared by every engine.
type Result = dynamics.Result

// Scenario declares one simulation: the instance, the rerouting policy, the
// information model (the bulletin-board period T; the information-model
// refinements — fresh recomputation, finite-N sampling — live on the
// engine), the initial flow and the run shape.
type Scenario struct {
	// Engine selects the dynamics; nil runs the default Fluid engine.
	Engine Engine
	// Instance is the Wardrop instance to route on (required).
	Instance *flow.Instance
	// Policy is the two-step rerouting policy. Required by the Fluid and
	// Agents engines; ignored by BestResponse.
	Policy policy.Policy
	// UpdatePeriod is the bulletin-board period T (> 0 for every stale-
	// information engine; ignored when Fluid.Fresh is set).
	UpdatePeriod float64
	// InitialFlow is the starting flow; nil starts from the instance's
	// uniform flow.
	InitialFlow flow.Vector
	// Horizon is the simulated time budget (required, > 0).
	Horizon float64

	// Delta and Eps parameterise the (δ,ε)-equilibrium round accounting of
	// Theorems 6 and 7 (Delta <= 0 disables it); Weak selects the
	// Definition 4 metric.
	Delta float64
	Eps   float64
	Weak  bool
	// StopAfterSatisfiedStreak stops the run once this many consecutive
	// phases started at the configured approximate equilibrium (0 disables).
	StopAfterSatisfiedStreak int
	// RecordEvery records a trajectory sample every k phases (0 disables).
	RecordEvery int
}

// engineOrDefault resolves the scenario's engine.
func (sc Scenario) engineOrDefault() Engine {
	if sc.Engine == nil {
		return Fluid{}
	}
	return sc.Engine
}

// initialFlow resolves the scenario's starting flow.
func (sc Scenario) initialFlow() flow.Vector {
	if sc.InitialFlow != nil {
		return sc.InitialFlow
	}
	return sc.Instance.UniformFlow()
}

// runShape is the run shape every engine runs the scenario with: its
// accounting and recording fields plus the run's observer and workspace.
func (sc Scenario) runShape(opts Options) dynamics.RunShape {
	return dynamics.RunShape{
		Delta:                    sc.Delta,
		Eps:                      sc.Eps,
		Weak:                     sc.Weak,
		StopAfterSatisfiedStreak: sc.StopAfterSatisfiedStreak,
		RecordEvery:              sc.RecordEvery,
		Observer:                 opts.Observer,
		Workspace:                opts.Workspace,
	}
}

// validate rejects scenarios no engine can run; engine-specific shape checks
// (period, policy, population) stay with the engines' own validation.
func (sc Scenario) validate() error {
	if sc.Instance == nil {
		return fmt.Errorf("%w: nil instance", ErrBadScenario)
	}
	return nil
}

// Options is the resolved form of a RunOption list.
type Options struct {
	// Observer receives every phase start (nil when no observer was given).
	Observer dynamics.Observer
	// Workspace supplies the run's scratch buffers (nil: the engine
	// allocates privately). See flow.Workspace for the reuse contract.
	Workspace *flow.Workspace
}

// RunOption configures one Run call.
type RunOption func(*Options)

// WithObserver attaches observers to the run; multiple options and multiple
// observers compose (fan-out, every observer sees every phase, the run
// stops when any of them asks to).
func WithObserver(obs ...dynamics.Observer) RunOption {
	return func(o *Options) {
		flat := make([]dynamics.Observer, 0, 1+len(obs))
		if o.Observer != nil {
			flat = append(flat, o.Observer)
		}
		for _, ob := range obs {
			if ob != nil {
				flat = append(flat, ob)
			}
		}
		switch len(flat) {
		case 0:
			// Keep the nil-means-absent invariant on Options.Observer.
		case 1:
			o.Observer = flat[0]
		default:
			o.Observer = dynamics.MultiObserver(flat...)
		}
	}
}

// WithWorkspace runs the scenario on the given workspace, so repeated runs
// (a sweep worker's tasks, a parameter scan) reuse one set of scratch
// buffers instead of reallocating per run. The workspace is reset by the
// engine at run entry; it must not be shared by concurrent runs.
func WithWorkspace(ws *flow.Workspace) RunOption {
	return func(o *Options) { o.Workspace = ws }
}

// Engine executes a scenario under one dynamics family. Engines are small
// comparable values so campaign specs can carry them; Name is the stable
// identifier the spec layer round-trips through JSON.
type Engine interface {
	// Name is the engine's stable registry name.
	Name() string
	// Run executes the scenario. On context cancellation engines return the
	// partial result accumulated so far together with ctx.Err().
	Run(ctx context.Context, sc Scenario, opts Options) (*Result, error)
}

// IsCancellation reports whether err is context cancellation (Canceled or
// DeadlineExceeded) — the errors engines return together with a partial
// result. It is the one definition of the interruption taxonomy shared by
// the sweep engine and the CLIs.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes the scenario on its engine. It is the single entry point the
// sweep engine, the experiments harness, the CLIs and the examples dispatch
// through; the legacy Simulate*/NewAgentSim functions remain as deprecated
// adapters around the same internals.
func Run(ctx context.Context, sc Scenario, opts ...RunOption) (*Result, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return sc.engineOrDefault().Run(ctx, sc, o)
}
