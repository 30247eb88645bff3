package wardrop

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"wardrop/internal/catalog"
	"wardrop/internal/engine"
	"wardrop/internal/latency"
	"wardrop/internal/policy"
	"wardrop/internal/scenario"
	"wardrop/internal/timeline"
	"wardrop/internal/topo"
)

// Component catalog --------------------------------------------------------
//
// Every pluggable component family — latency kinds, topology families,
// rerouting policies and migrators, engines, integrators and start
// distributions — lives in a named registry that the JSON spec layers
// (instance files, campaign files, scenario files) and the CLIs dispatch
// through. Register* adds user components under new names; they become
// selectable from every file format and CLI immediately, with no changes to
// core packages.

// CatalogParam documents one parameter of a registered component.
type CatalogParam = catalog.Param

// CatalogComponent is one registered component in a Catalog() listing.
type CatalogComponent = catalog.Description

// LatencyEntry registers one latency kind: a name, docs, and a constructor
// decoding its parameters from the latency document (use DecodeCatalogParams
// for the nested "params" object custom kinds receive).
type LatencyEntry = catalog.Entry[latency.Function]

// TopologyBuilder is a materialised topology selection: the stable cell
// label, whether construction is seed-dependent, and the constructor.
type TopologyBuilder = topo.Builder

// TopologyEntry registers one topology family producing a TopologyBuilder.
type TopologyEntry = catalog.Entry[topo.Builder]

// SamplerChoice is a materialised sampling-rule selection: the constructed
// Sampler plus its stable cell label.
type SamplerChoice = policy.SamplerChoice

// SamplerEntry registers one sampling rule producing a SamplerChoice.
type SamplerEntry = catalog.Entry[policy.SamplerChoice]

// MigratorChoice is a materialised migration-rule selection: the label
// suffix plus an ℓmax-taking constructor.
type MigratorChoice = policy.MigratorChoice

// MigratorEntry registers one migration rule producing a MigratorChoice.
type MigratorEntry = catalog.Entry[policy.MigratorChoice]

// RegisterLatency adds a latency kind to the catalog. The kind becomes
// selectable by name in instance documents ({"kind": name, "params": {...}}),
// and therefore in scenario files and campaign custom topologies.
func RegisterLatency(e LatencyEntry) error { return latency.Catalog.Register(e) }

// RegisterTopology adds a topology family to the catalog. The family becomes
// selectable in campaign topology axes, scenario files and the CLIs
// ({"family": name, "params": {...}}).
func RegisterTopology(e TopologyEntry) error { return topo.Catalog.Register(e) }

// RegisterPolicy adds a sampling rule to the catalog. The rule becomes
// selectable in campaign policy axes and scenario files
// ({"kind": name, "params": {...}}).
func RegisterPolicy(e SamplerEntry) error { return policy.Samplers.Register(e) }

// RegisterMigrator adds a migration rule to the catalog, selectable via a
// policy document's "migrator" field.
func RegisterMigrator(e MigratorEntry) error { return policy.Migrators.Register(e) }

// EngineEntry registers one simulation engine; its Build decodes parameters
// from the engine document (nested "params" for custom engines).
type EngineEntry = catalog.Entry[engine.Engine]

// RegisterEngine adds an engine to the catalog, selectable via an engine
// document's "kind" field in scenario files and EngineSpec values.
func RegisterEngine(e EngineEntry) error { return engine.Catalog.Register(e) }

// StartFunc builds an initial flow for an instance — one registered start
// distribution.
type StartFunc = engine.StartFunc

// StartEntry registers one initial-flow distribution.
type StartEntry = catalog.Entry[engine.StartFunc]

// RegisterStart adds a start distribution to the catalog, selectable via
// the "start" field of scenario files and campaign specs.
func RegisterStart(e StartEntry) error { return engine.Starts.Register(e) }

// Time-varying runs ---------------------------------------------------------

// TimelineSpec is the declarative timeline block of a scenario or campaign
// document: demand schedules, an event track and tolls that modulate an
// otherwise stationary run deterministically in simulated time. The zero
// value (and a nil pointer) is the stationary timeline.
type TimelineSpec = timeline.Spec

// TimelineSchedule selects and parameterises one demand schedule inside a
// TimelineSpec.
type TimelineSchedule = timeline.ScheduleSpec

// TimelineEventSpec schedules one edge incident inside a TimelineSpec.
type TimelineEventSpec = timeline.EventSpec

// TimelineToll applies one toll inside a TimelineSpec.
type TimelineToll = timeline.TollSpec

// DemandSchedule is a built demand-rate profile: the multiplicative factor
// applied to a commodity's rate at simulated time t.
type DemandSchedule = timeline.Schedule

// EdgePatch rewrites one edge's latency function — the building block of
// timeline events and tolls.
type EdgePatch = timeline.EdgePatch

// ScheduleEntry registers one demand-schedule kind, selectable via a
// timeline schedule document's "kind" field.
type ScheduleEntry = catalog.Entry[timeline.Schedule]

// EventEntry registers one timeline event action, selectable via a timeline
// event document's "action" field.
type EventEntry = catalog.Entry[timeline.EdgePatch]

// TollEntry registers one toll kind, selectable via a timeline toll
// document's "kind" field.
type TollEntry = catalog.Entry[timeline.EdgePatch]

// RegisterSchedule adds a demand-schedule kind to the catalog.
func RegisterSchedule(e ScheduleEntry) error { return timeline.Schedules.Register(e) }

// RegisterEvent adds a timeline event action to the catalog.
func RegisterEvent(e EventEntry) error { return timeline.Events.Register(e) }

// RegisterToll adds a toll kind to the catalog.
func RegisterToll(e TollEntry) error { return timeline.Tolls.Register(e) }

// ApplyTolls returns the instance with the timeline's tolls applied to its
// edge latencies (the t = 0 transform of a timeline run). A nil or toll-free
// timeline returns inst unchanged. The derived instance shares the original's
// path enumeration, so flow vectors are index-compatible across both — useful
// for evaluating a tolled equilibrium under the original latencies.
func ApplyTolls(s *TimelineSpec, inst *Instance) (*Instance, error) {
	return timeline.ApplyTolls(s, inst)
}

// DecodeCatalogArgs decodes a selecting document's flat fields into v — the
// idiom builtin-style components use.
func DecodeCatalogArgs(args json.RawMessage, v any) error { return catalog.DecodeArgs(args, v) }

// DecodeCatalogParams decodes a selecting document's nested "params" object
// into v — the parameter channel for user-registered components.
func DecodeCatalogParams(args json.RawMessage, v any) error { return catalog.DecodeParams(args, v) }

// Catalog lists every registered component — builtin and user-registered —
// in deterministic order: component kinds in fixed dependency order, names
// sorted within each kind. A Server's /v1/catalog serves the same listing.
func Catalog() []CatalogComponent { return scenario.Catalog() }

// WriteCatalog renders the component catalog as an indented human-readable
// listing grouped by component kind — the output of the CLIs' -list flag.
func WriteCatalog(w io.Writer) error {
	kind := ""
	for _, c := range Catalog() {
		if c.Kind != kind {
			if kind != "" {
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
			kind = c.Kind
			if _, err := fmt.Fprintf(w, "%s:\n", kind); err != nil {
				return err
			}
		}
		params := make([]string, 0, len(c.Params))
		for _, p := range c.Params {
			params = append(params, p.Name+" "+p.Type)
		}
		if _, err := fmt.Fprintf(w, "  %s(%s)\n      %s\n", c.Name, strings.Join(params, ", "), c.Doc); err != nil {
			return err
		}
		for _, p := range c.Params {
			if _, err := fmt.Fprintf(w, "      %s: %s\n", p.Name, p.Doc); err != nil {
				return err
			}
		}
	}
	return nil
}

// Declarative scenario files -----------------------------------------------

// ScenarioSpec is the JSON document shape of one simulation run — the
// single-run counterpart of a campaign cell: instance-or-topology + policy +
// update period + engine + start + run shape. Materialise with its Scenario
// method and execute with Run.
type ScenarioSpec = scenario.Spec

// ParseScenario decodes and validates a JSON scenario specification.
//
//	sc, _ := wardrop.ParseScenario(f)
//	scenario, _ := sc.Scenario()
//	res, _ := wardrop.Run(ctx, scenario)
func ParseScenario(r io.Reader) (*ScenarioSpec, error) { return scenario.Parse(r) }
