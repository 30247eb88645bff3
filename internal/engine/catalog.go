package engine

import (
	"encoding/json"
	"fmt"
	"math"

	"wardrop/internal/catalog"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/meanfield"
)

// Catalog is the registry of engines; Integrators the registry of within-
// phase integration schemes; Starts the registry of initial-flow
// distributions. Spec.Build, the sweep campaign layer and the scenario layer
// dispatch through them instead of switching on names.
var (
	Catalog     = newEngines()
	Integrators = newIntegrators()
	Starts      = newStarts()
)

// engineArgs mirrors the flat JSON fields of an engine document (the same
// fields Spec carries for programmatic construction).
type engineArgs struct {
	N           int64   `json:"n"`
	Seed        uint64  `json:"seed"`
	Workers     int     `json:"workers"`
	EventDriven bool    `json:"eventDriven"`
	Integrator  string  `json:"integrator"`
	Step        float64 `json:"step"`
}

// fluidBuilder builds the Fluid engine in its stale- or fresh-information
// variant.
func fluidBuilder(fresh bool) func(json.RawMessage) (Engine, error) {
	return func(raw json.RawMessage) (Engine, error) {
		var a engineArgs
		if err := catalog.DecodeArgs(raw, &a); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadEngine, err)
		}
		integ, err := ParseIntegrator(a.Integrator)
		if err != nil {
			return nil, err
		}
		return Fluid{Fresh: fresh, Integrator: integ, Step: a.Step}, nil
	}
}

func newEngines() *catalog.Registry[Engine] {
	r := catalog.NewRegistry[Engine]("engine")
	r.MustRegister(catalog.Entry[Engine]{
		Name: "fluid",
		Doc:  "infinite-population fluid-limit ODE under stale information (Eq. 3; the default)",
		Params: []catalog.Param{
			{Name: "integrator", Type: "string", Doc: "within-phase scheme: euler, rk4, uniformization (default rk4)"},
			{Name: "step", Type: "float", Doc: "integrator step (0 = default)"},
		},
		Build: fluidBuilder(false),
	})
	r.MustRegister(catalog.Entry[Engine]{
		Name: "fresh",
		Doc:  "fluid-limit ODE under up-to-date information (Eq. 1; the update period is ignored)",
		Params: []catalog.Param{
			{Name: "integrator", Type: "string", Doc: "within-phase scheme: euler, rk4, uniformization (default rk4)"},
			{Name: "step", Type: "float", Doc: "integrator step (0 = default)"},
		},
		Build: fluidBuilder(true),
	})
	r.MustRegister(catalog.Entry[Engine]{
		Name: "bestresponse",
		Doc:  "best-response differential inclusion under stale information (Eq. 4)",
		Build: func(json.RawMessage) (Engine, error) {
			return BestResponse{}, nil
		},
	})
	r.MustRegister(catalog.Entry[Engine]{
		Name: "agents",
		Doc:  "finite-N stochastic bulletin-board simulation",
		Params: []catalog.Param{
			{Name: "n", Type: "int", Doc: "population size (>= 1)"},
			{Name: "seed", Type: "uint", Doc: "reproducibility seed"},
			{Name: "workers", Type: "int", Doc: "simulation goroutines (0 = two, on every machine)"},
			{Name: "eventDriven", Type: "bool", Doc: "exact global event clock instead of per-phase batching"},
		},
		Build: func(raw json.RawMessage) (Engine, error) {
			var a engineArgs
			if err := catalog.DecodeArgs(raw, &a); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadEngine, err)
			}
			if a.N < 1 {
				return nil, fmt.Errorf("%w: agents engine requires n >= 1, got %d", ErrBadEngine, a.N)
			}
			if a.N > MaxAgentPopulation {
				return nil, fmt.Errorf("%w: agents engine holds at most %d individually simulated agents (n = %d); use the count engine (kind \"count\") — it runs the identical stochastic process at any population", ErrBadEngine, int64(MaxAgentPopulation), a.N)
			}
			return Agents{N: int(a.N), Seed: a.Seed, Workers: a.Workers, EventDriven: a.EventDriven}, nil
		},
	})
	r.MustRegister(catalog.Entry[Engine]{
		Name: "count",
		Doc:  "mean-field count engine: the agents process as per-path counts, O(paths) per phase at any population",
		Params: []catalog.Param{
			{Name: "n", Type: "int", Doc: "population size (>= 1; millions are fine)"},
			{Name: "seed", Type: "uint", Doc: "reproducibility seed"},
		},
		Build: func(raw json.RawMessage) (Engine, error) {
			var a engineArgs
			if err := catalog.DecodeArgs(raw, &a); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadEngine, err)
			}
			if a.N < 1 {
				return nil, fmt.Errorf("%w: count engine requires n >= 1, got %d", ErrBadEngine, a.N)
			}
			if a.N > meanfield.MaxPopulation {
				return nil, fmt.Errorf("%w: count engine requires n <= %d (exact float64 counts), got %d", ErrBadEngine, meanfield.MaxPopulation, a.N)
			}
			return Count{N: a.N, Seed: a.Seed}, nil
		},
	})
	if err := r.Alias("best-response", "bestresponse"); err != nil {
		panic(err)
	}
	return r
}

func newIntegrators() *catalog.Registry[dynamics.Integrator] {
	r := catalog.NewRegistry[dynamics.Integrator]("integrator")
	r.MustRegister(catalog.Entry[dynamics.Integrator]{
		Name:  "euler",
		Doc:   "explicit Euler within-phase integration",
		Build: func(json.RawMessage) (dynamics.Integrator, error) { return dynamics.Euler, nil },
	})
	r.MustRegister(catalog.Entry[dynamics.Integrator]{
		Name:  "rk4",
		Doc:   "classical Runge–Kutta within-phase integration (the default)",
		Build: func(json.RawMessage) (dynamics.Integrator, error) { return dynamics.RK4, nil },
	})
	r.MustRegister(catalog.Entry[dynamics.Integrator]{
		Name:  "uniformization",
		Doc:   "exact uniformization of the within-phase linear system",
		Build: func(json.RawMessage) (dynamics.Integrator, error) { return dynamics.Uniformization, nil },
	})
	return r
}

// StartFunc builds an initial flow for an instance — one registered start
// distribution.
type StartFunc func(inst *flow.Instance) (flow.Vector, error)

func newStarts() *catalog.Registry[StartFunc] {
	r := catalog.NewRegistry[StartFunc]("start")
	r.MustRegister(catalog.Entry[StartFunc]{
		Name: "uniform",
		Doc:  "each commodity spreads its demand evenly over its paths (the default)",
		Build: func(json.RawMessage) (StartFunc, error) {
			return func(inst *flow.Instance) (flow.Vector, error) {
				return inst.UniformFlow(), nil
			}, nil
		},
	})
	r.MustRegister(catalog.Entry[StartFunc]{
		Name: "worst",
		Doc:  "each commodity entirely on its highest free-flow-latency path",
		Build: func(json.RawMessage) (StartFunc, error) {
			return worstStart, nil
		},
	})
	r.MustRegister(catalog.Entry[StartFunc]{
		Name: "skewed",
		Doc:  "90% of each commodity on its worst path, the rest spread evenly",
		Build: func(json.RawMessage) (StartFunc, error) {
			return skewedStart, nil
		},
	})
	return r
}

// worstStart routes each commodity entirely on its highest free-flow-latency
// path — the adversarial start of the scaling experiments.
func worstStart(inst *flow.Instance) (flow.Vector, error) {
	f := make(flow.Vector, inst.NumPaths())
	freeFlow := inst.PathLatencies(make(flow.Vector, inst.NumPaths()))
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, _ := inst.CommodityRange(i)
		f[lo+worstPath(inst, i, freeFlow)] = inst.Commodity(i).Demand
	}
	return f, nil
}

// skewedStart puts 90% of each commodity's demand on its worst path and
// spreads the rest evenly — keeping proportional sampling non-degenerate (it
// cannot leave a path with exactly zero flow).
func skewedStart(inst *flow.Instance) (flow.Vector, error) {
	f := make(flow.Vector, inst.NumPaths())
	freeFlow := inst.PathLatencies(make(flow.Vector, inst.NumPaths()))
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, hi := inst.CommodityRange(i)
		d := inst.Commodity(i).Demand
		rest := 0.1 * d / float64(hi-lo)
		for g := lo; g < hi; g++ {
			f[g] = rest
		}
		f[lo+worstPath(inst, i, freeFlow)] += 0.9 * d
	}
	return f, nil
}

// worstPath returns the commodity-local index of the path with the highest
// free-flow latency. freeFlow is the instance's path-latency vector at zero
// flow.
func worstPath(inst *flow.Instance, commodity int, freeFlow []float64) int {
	lo, hi := inst.CommodityRange(commodity)
	best, bestVal := 0, math.Inf(-1)
	for g := lo; g < hi; g++ {
		if freeFlow[g] > bestVal {
			best, bestVal = g-lo, freeFlow[g]
		}
	}
	return best
}

// BuildStart resolves a start-distribution name ("" = uniform) and builds
// the initial flow for the instance.
func BuildStart(name string, inst *flow.Instance) (flow.Vector, error) {
	fn, err := LookupStart(name)
	if err != nil {
		return nil, err
	}
	return fn(inst)
}

// LookupStart resolves a start-distribution name ("" = uniform) without an
// instance — the parse-time validation hook.
func LookupStart(name string) (StartFunc, error) {
	if name == "" {
		name = "uniform"
	}
	return Starts.Build(name, nil)
}
