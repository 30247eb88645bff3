package scenario

import (
	"wardrop/internal/catalog"
	"wardrop/internal/engine"
	"wardrop/internal/latency"
	"wardrop/internal/policy"
	"wardrop/internal/timeline"
	"wardrop/internal/topo"
)

// Catalog lists every component a scenario or campaign document can select
// — builtin and user-registered — in deterministic order: component kinds in
// fixed dependency order, names sorted within each kind.
func Catalog() []catalog.Description {
	var out []catalog.Description
	out = append(out, latency.Catalog.Describe()...)
	out = append(out, topo.Catalog.Describe()...)
	out = append(out, policy.Samplers.Describe()...)
	out = append(out, policy.Migrators.Describe()...)
	out = append(out, engine.Catalog.Describe()...)
	out = append(out, engine.Integrators.Describe()...)
	out = append(out, engine.Starts.Describe()...)
	out = append(out, timeline.Schedules.Describe()...)
	out = append(out, timeline.Events.Describe()...)
	out = append(out, timeline.Tolls.Describe()...)
	return out
}
