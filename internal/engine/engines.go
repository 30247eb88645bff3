package engine

import (
	"context"
	"encoding/json"
	"fmt"

	"wardrop/internal/agents"
	"wardrop/internal/catalog"
	"wardrop/internal/dynamics"
	"wardrop/internal/meanfield"
)

// Fluid integrates the infinite-population fluid-limit ODE: the
// stale-information dynamics (Eq. 3) under the bulletin-board model by
// default, or the up-to-date-information dynamics (Eq. 1) when Fresh is set.
type Fluid struct {
	// Fresh selects the fresh-information dynamics (Eq. 1); the scenario's
	// UpdatePeriod is then ignored.
	Fresh bool
	// Integrator selects the within-phase scheme (0 = the dynamics default,
	// RK4).
	Integrator dynamics.Integrator
	// Step is the integrator step (0 = the dynamics default).
	Step float64
}

// Name returns "fluid" or "fresh".
func (e Fluid) Name() string {
	if e.Fresh {
		return "fresh"
	}
	return "fluid"
}

// Run integrates the scenario's fluid dynamics.
func (e Fluid) Run(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	cfg := dynamics.Config{
		Policy:       sc.Policy,
		UpdatePeriod: sc.UpdatePeriod,
		Step:         e.Step,
		Horizon:      sc.Horizon,
		Integrator:   e.Integrator,
		RunShape:     sc.runShape(opts),
	}
	if e.Fresh {
		return dynamics.RunFresh(ctx, sc.Instance, cfg, sc.initialFlow())
	}
	return dynamics.Run(ctx, sc.Instance, cfg, sc.initialFlow())
}

// BestResponse integrates the best-response differential inclusion under
// stale information (Eq. 4) with exact per-phase relaxation. The scenario's
// Policy is ignored — every activated agent adopts the board's shortest
// path.
type BestResponse struct{}

// Name returns "bestresponse".
func (BestResponse) Name() string { return "bestresponse" }

// Run integrates the scenario's best-response dynamics.
func (BestResponse) Run(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	cfg := dynamics.BestResponseConfig{
		UpdatePeriod: sc.UpdatePeriod,
		Horizon:      sc.Horizon,
		RunShape:     sc.runShape(opts),
	}
	return dynamics.RunBestResponse(ctx, sc.Instance, cfg, sc.initialFlow())
}

// MaxAgentPopulation is the largest population the per-agent engine accepts:
// it materialises every agent (8 bytes each, plus per-worker count arrays),
// so beyond this the engine is the wrong tool — the count engine (Count,
// kind "count") simulates the identical stochastic process at O(paths) per
// phase for any population.
const MaxAgentPopulation = 1 << 24

// Agents runs the finite-N stochastic bulletin-board simulation — the
// engine whose N → ∞ limit is Fluid.
type Agents struct {
	// N is the population size (required, >= 1 and <= MaxAgentPopulation —
	// use Count for larger populations).
	N int
	// Seed makes runs reproducible for a fixed (Seed, Workers) pair.
	Seed uint64
	// Workers is the number of simulation goroutines (0 = GOMAXPROCS).
	Workers int
	// EventDriven selects the exact global event clock instead of per-phase
	// Poisson batching (single-threaded reference engine).
	EventDriven bool
}

// Name returns "agents".
func (Agents) Name() string { return "agents" }

// Run simulates the scenario's finite-N stochastic counterpart.
func (e Agents) Run(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	sim, err := agents.New(sc.Instance, agents.Config{
		N:            e.N,
		Policy:       sc.Policy,
		UpdatePeriod: sc.UpdatePeriod,
		Horizon:      sc.Horizon,
		Seed:         e.Seed,
		Workers:      e.Workers,
		InitialFlow:  sc.InitialFlow,
		RunShape:     sc.runShape(opts),
	})
	if err != nil {
		return nil, err
	}
	if e.EventDriven {
		return sim.RunEventDrivenContext(ctx)
	}
	return sim.RunContext(ctx)
}

// Count runs the mean-field count engine: the same finite-N bulletin-board
// process as Agents, represented as integer counts per (commodity, path) and
// advanced by binomial/multinomial splitting, so a phase costs O(paths²)
// independent of the population — millions of agents cost the same as
// thousands. Distributionally identical to Agents (not an approximation);
// results are reproducible from the seed via the shared splitmix64
// discipline.
type Count struct {
	// N is the population size (required, >= 1; int64 — populations up to
	// 2^53 stay exactly representable).
	N int64
	// Seed makes runs reproducible.
	Seed uint64
}

// Name returns "count".
func (Count) Name() string { return "count" }

// Run simulates the scenario's population as per-path counts.
func (e Count) Run(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	sim, err := meanfield.New(sc.Instance, meanfield.Config{
		N:            e.N,
		Policy:       sc.Policy,
		UpdatePeriod: sc.UpdatePeriod,
		Horizon:      sc.Horizon,
		Seed:         e.Seed,
		InitialFlow:  sc.InitialFlow,
		RunShape:     sc.runShape(opts),
	})
	if err != nil {
		return nil, err
	}
	return sim.RunContext(ctx)
}

// Spec is the JSON document shape for selecting an engine by name — the
// form spec/JSON layers (exposed at the root as wardrop.EngineSpec) use to
// construct engines from configuration instead of Go values. Construction
// dispatches through the engine Catalog, so user-registered engines are
// selectable too; their parameters travel in Params.
type Spec struct {
	// Kind names the engine: fluid (default), fresh, bestresponse, agents,
	// count, or any registered engine.
	Kind string `json:"kind"`
	// N is the population size (kind=agents or count; int64 so count
	// populations beyond 2^31 survive the document round-trip).
	N int64 `json:"n,omitempty"`
	// Seed seeds the stochastic engines (kind=agents or count).
	Seed uint64 `json:"seed,omitempty"`
	// Workers is the goroutine count (kind=agents; 0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// EventDriven selects the exact event clock (kind=agents).
	EventDriven bool `json:"eventDriven,omitempty"`
	// Integrator names the within-phase scheme (kind=fluid/fresh):
	// euler, rk4, uniformization ("" = default).
	Integrator string `json:"integrator,omitempty"`
	// Step is the integrator step (kind=fluid/fresh; 0 = default).
	Step float64 `json:"step,omitempty"`
	// Params carries a user-registered engine's parameters (decode with
	// catalog.DecodeParams). Builtin kinds read the flat fields above and
	// also honour overrides placed here (a field present in both spellings
	// resolves to the params value).
	Params json.RawMessage `json:"params,omitempty"`
}

// Build materialises the engine through the Catalog.
func (s Spec) Build() (Engine, error) {
	kind := s.Kind
	if kind == "" {
		kind = "fluid"
	}
	args, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEngine, err)
	}
	eng, err := Catalog.Build(kind, args)
	if err != nil {
		return nil, badEngine(err)
	}
	return eng, nil
}

// badEngine wraps errors from the catalog layer with the package sentinel,
// leaving already-tagged errors untouched.
func badEngine(err error) error { return catalog.WrapSentinel(ErrBadEngine, err) }

// New returns a default-configured engine by name; the stochastic engines
// cannot be built this way (they need a population — use Spec).
func New(name string) (Engine, error) {
	if name == "agents" || name == "count" {
		return nil, fmt.Errorf("%w: %s engine needs a population; use Spec{Kind: %q, N: ...}", ErrBadEngine, name, name)
	}
	return Spec{Kind: name}.Build()
}

// ParseIntegrator resolves an integrator name through the Integrators
// registry ("" = the dynamics default).
func ParseIntegrator(name string) (dynamics.Integrator, error) {
	if name == "" {
		return 0, nil
	}
	integ, err := Integrators.Build(name, nil)
	if err != nil {
		return 0, badEngine(err)
	}
	return integ, nil
}
