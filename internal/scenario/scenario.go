// Package scenario declares the single-run counterpart of a sweep campaign
// cell: one declarative JSON document selecting an instance (embedded or by
// topology family), a rerouting policy, an update period, an engine, a start
// distribution and the run shape, materialised into an engine.Scenario ready
// for engine.Run. Every component resolves through the catalog registries,
// so user-registered latency kinds, topology families, policies and engines
// are selectable from scenario files without touching core packages.
package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"wardrop/internal/catalog"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/spec"
	"wardrop/internal/sweep"
	"wardrop/internal/timeline"
)

// Sentinel errors.
var (
	// ErrBadScenario indicates a structurally invalid scenario specification.
	ErrBadScenario = errors.New("scenario: invalid scenario specification")
)

// badScenario wraps errors from the component layers with the package
// sentinel, leaving already-tagged errors untouched.
func badScenario(err error) error { return catalog.WrapSentinel(ErrBadScenario, err) }

// Spec is the JSON document shape of one simulation run.
type Spec struct {
	// Name labels the scenario (informational).
	Name string `json:"name,omitempty"`

	// Instance embeds a full instance document; Topology selects a
	// registered topology family instead. Exactly one must be set.
	Instance json.RawMessage `json:"instance,omitempty"`
	Topology *sweep.Topology `json:"topology,omitempty"`
	// Seed feeds seeded topology families (e.g. layered).
	Seed uint64 `json:"seed,omitempty"`

	// Policy selects the rerouting policy. Required by every engine except
	// bestresponse, which ignores it.
	Policy *sweep.PolicySpec `json:"policy,omitempty"`

	// UpdatePeriod is the bulletin-board period: a number, or "safe" for
	// the per-(instance, policy) provably safe period of Corollary 5.
	// Omitted = safe.
	UpdatePeriod *sweep.Period `json:"updatePeriod,omitempty"`

	// Engine selects the dynamics. Omitted = the default fluid engine with
	// its default RK4 integrator — note wardsim's flag path picks the exact
	// uniformization integrator instead, so a scenario reproducing a
	// flag-driven run byte for byte must say so explicitly:
	// {"kind": "fluid", "integrator": "uniformization"}.
	Engine *engine.Spec `json:"engine,omitempty"`

	// Start selects the initial-flow distribution: uniform (default),
	// worst, skewed, or any registered start.
	Start string `json:"start,omitempty"`

	// Run shape. Horizon is the simulated-time budget; MaxPhases, if
	// positive, overrides it with MaxPhases·T.
	Horizon   float64 `json:"horizon,omitempty"`
	MaxPhases int     `json:"maxPhases,omitempty"`
	// RecordEvery records a trajectory sample every k phases (0 disables).
	RecordEvery int `json:"recordEvery,omitempty"`

	// Delta and Eps parameterise the (δ,ε)-equilibrium accounting
	// (Delta <= 0 disables it); Weak selects the Definition 4 metric;
	// Streak stops the run after that many consecutive satisfied phases.
	Delta  float64 `json:"delta,omitempty"`
	Eps    float64 `json:"eps,omitempty"`
	Weak   bool    `json:"weak,omitempty"`
	Streak int     `json:"streak,omitempty"`

	// Timeline makes the run time-varying: demand schedules, edge events and
	// tolls (see package timeline). Omitted = stationary. A timeline with
	// schedules or events needs segmented execution — run such specs through
	// Spec.Run; Scenario() materialises only stationary (at most tolled)
	// specs.
	Timeline *timeline.Spec `json:"timeline,omitempty"`
}

// Parse decodes a JSON scenario specification, rejecting unknown fields, and
// validates it.
func Parse(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadScenario, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// period resolves the update-period selection (omitted = safe).
func (s *Spec) period() sweep.Period {
	if s.UpdatePeriod == nil {
		return sweep.Period{Safe: true}
	}
	return *s.UpdatePeriod
}

// buildEngine materialises the engine selection (omitted = default fluid).
func (s *Spec) buildEngine() (engine.Engine, error) {
	if s.Engine == nil {
		return engine.Fluid{}, nil
	}
	return s.Engine.Build()
}

// Validate rejects structurally invalid scenarios at parse time, before any
// instance is built: the cheap shape checks plus one resolution of every
// selected component through its catalog.
func (s *Spec) Validate() error {
	if err := s.validateShape(); err != nil {
		return err
	}
	if len(s.Instance) > 0 {
		if _, err := spec.Decode(bytes.NewReader(s.Instance)); err != nil {
			return badScenario(err)
		}
	}
	if s.Topology != nil {
		if err := s.Topology.Validate(); err != nil {
			return badScenario(err)
		}
	}
	eng, err := s.buildEngine()
	if err != nil {
		return badScenario(err)
	}
	if err := s.validatePolicyFor(eng); err != nil {
		return err
	}
	if s.Policy != nil {
		if err := s.Policy.Validate(); err != nil {
			return badScenario(err)
		}
	}
	if err := s.Timeline.Validate(); err != nil {
		return badScenario(err)
	}
	return nil
}

// validateShape checks selector exclusivity and the run shape (the check
// campaigns share, start distribution included) — everything that needs no
// instance. Scenario() repeats only these cheap checks; the component
// resolutions it performs anyway surface the rest.
func (s *Spec) validateShape() error {
	if len(s.Instance) == 0 && s.Topology == nil {
		return fmt.Errorf("%w: need an instance document or a topology selection", ErrBadScenario)
	}
	if len(s.Instance) > 0 && s.Topology != nil {
		return fmt.Errorf("%w: instance and topology are mutually exclusive", ErrBadScenario)
	}
	if s.period().Safe && s.Policy == nil {
		return fmt.Errorf("%w: the safe update period requires a policy (give a numeric updatePeriod)", ErrBadScenario)
	}
	shape := sweep.Shape{Horizon: s.Horizon, MaxPhases: s.MaxPhases, Start: s.Start, Delta: s.Delta, Eps: s.Eps,
		Accounting: s.Delta > 0, Streak: s.Streak, RecordEvery: s.RecordEvery}
	return shape.Validate(ErrBadScenario)
}

// validatePolicyFor rejects policy-less scenarios on engines that need one
// (every engine except best response ignores it).
func (s *Spec) validatePolicyFor(eng engine.Engine) error {
	if _, bestResponse := eng.(engine.BestResponse); s.Policy == nil && !bestResponse {
		return fmt.Errorf("%w: engine %q requires a policy", ErrBadScenario, eng.Name())
	}
	return nil
}

// Scenario materialises the specification: instance, policy, resolved
// period, initial flow, engine and run shape, ready for engine.Run. It does
// not re-run the full Validate — each component is decoded and built exactly
// once here, surfacing the same errors — only the cheap shape checks are
// repeated so hand-constructed Specs fail fast too.
//
// A spec whose timeline carries schedules or events cannot be captured by a
// single stationary engine.Scenario and is rejected here — run it through
// Spec.Run, which compiles and executes the timeline program. Tolls alone
// are fine: they transform the instance once at t = 0.
func (s *Spec) Scenario() (engine.Scenario, error) {
	if s.Timeline.NeedsProgram() {
		return engine.Scenario{}, fmt.Errorf("%w: a timeline with schedules or events needs segmented execution — use Spec.Run", ErrBadScenario)
	}
	sc, _, err := s.materialize()
	return sc, err
}

// materialize builds the instance and resolves the run through sweep.Bind —
// the binder campaign tasks use too — into the engine.Scenario on the tolled
// instance, plus the compiled timeline program when the timeline has
// schedules or events (nil otherwise).
func (s *Spec) materialize() (engine.Scenario, *timeline.Program, error) {
	if err := s.validateShape(); err != nil {
		return engine.Scenario{}, nil, err
	}
	eng, err := s.buildEngine()
	if err != nil {
		return engine.Scenario{}, nil, badScenario(err)
	}
	if err := s.validatePolicyFor(eng); err != nil {
		return engine.Scenario{}, nil, err
	}

	var inst *flow.Instance
	if s.Topology != nil {
		inst, err = s.Topology.Build(s.Seed)
	} else {
		var doc spec.Instance
		doc, err = spec.Decode(bytes.NewReader(s.Instance))
		if err == nil {
			inst, err = doc.Build()
		}
	}
	if err != nil {
		return engine.Scenario{}, nil, badScenario(err)
	}

	sc, prog, err := sweep.Bind(inst, s.Timeline, s.Policy, s.period(), s.Start, s.Horizon, s.MaxPhases)
	if err != nil {
		return engine.Scenario{}, nil, badScenario(err)
	}
	sc.Engine = eng
	sc.Delta, sc.Eps, sc.Weak = s.Delta, s.Eps, s.Weak
	sc.StopAfterSatisfiedStreak, sc.RecordEvery = s.Streak, s.RecordEvery
	return sc, prog, nil
}

// Run materialises and executes the specification — the single execution
// path shared by `wardsim -scenario` and the serving layer, so their result
// documents are byte-identical by construction.
//
// A stationary spec (no timeline, or tolls only) runs exactly as
// engine.Run(ctx, s.Scenario(), opts...) and returns nil events. A
// time-varying spec compiles its timeline into a program of stationary
// segments over the resolved horizon and replays it (see timeline.Run):
// demand mass is rescaled at schedule breakpoints, edge events patch
// latencies, and each event taking effect is reported to onEvent (if
// non-nil) and collected into the returned slice. The policy is rebuilt per
// segment from the spec's policy selection, so migration probabilities stay
// well-conditioned when an event changes the instance's latency range.
func (s *Spec) Run(ctx context.Context, onEvent func(timeline.AppliedEvent), opts ...engine.RunOption) (*engine.Result, []timeline.AppliedEvent, error) {
	sc, prog, err := s.materialize()
	if err != nil {
		return nil, nil, err
	}
	var buildPolicy timeline.PolicyBuilder
	if s.Policy != nil {
		buildPolicy = s.Policy.Build
	}
	return timeline.Run(ctx, prog, sc, buildPolicy, onEvent, opts...)
}

// Marshal encodes the specification as indented JSON.
func (s *Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
