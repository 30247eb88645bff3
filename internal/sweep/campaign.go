// Package sweep is the batch campaign engine: it expands a JSON campaign
// specification — a cross product of topology, policy, update-period,
// population and seed axes — into a deterministic task list, executes the
// tasks on a worker pool with streaming JSONL results, and aggregates the
// records into per-cell summary tables. It turns the one-run simulators
// (dynamics, agents) into a high-throughput exploration machine for the
// paper's scaling-law questions.
package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"

	"wardrop/internal/canon"
	"wardrop/internal/catalog"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/meanfield"
	"wardrop/internal/policy"
	"wardrop/internal/timeline"
	"wardrop/internal/topo"

	// Register the "custom" topology family (embedded instance documents).
	_ "wardrop/internal/spec"
	// Register the "tntp" topology family (road networks loaded from disk).
	_ "wardrop/internal/tntp"
)

// Sentinel errors.
var (
	// ErrBadCampaign indicates a structurally invalid campaign specification.
	ErrBadCampaign = errors.New("sweep: invalid campaign specification")
)

// badCampaign wraps errors from the catalog and component layers with the
// package sentinel, leaving already-tagged errors untouched.
func badCampaign(err error) error { return catalog.WrapSentinel(ErrBadCampaign, err) }

// Campaign is the JSON document shape: the axes whose cross product is the
// task list, plus run-shape scalars shared by every task.
type Campaign struct {
	// Name labels the campaign; output files are derived from it.
	Name string `json:"name"`

	// Axes. The cross product Topologies × Policies × UpdatePeriods ×
	// Agents × Seeds is expanded in this nesting order (seeds innermost),
	// so task IDs are reproducible across runs and machines.

	// Topologies lists the instances to sweep.
	Topologies []Topology `json:"topologies"`
	// Policies lists the rerouting policies.
	Policies []PolicySpec `json:"policies"`
	// UpdatePeriods lists bulletin-board periods: numbers, or "safe" for the
	// per-(instance, policy) provably safe period of Corollary 5.
	UpdatePeriods []Period `json:"updatePeriods"`
	// Agents lists population sizes; 0 runs the fluid limit, N > 0 the
	// finite-N per-agent stochastic simulator (N is capped at
	// engine.MaxAgentPopulation — larger populations go on the Counts axis).
	Agents []int `json:"agents,omitempty"`
	// Counts lists population sizes for the mean-field count engine, which
	// runs the identical stochastic process as per-path counts at O(paths)
	// per phase — the axis for populations the per-agent engine can't hold
	// (millions and up). Combined with Agents it forms one population axis,
	// Agents entries first.
	Counts []int64 `json:"counts,omitempty"`
	// Timelines, when non-empty, turns the timeline block into a sweep axis
	// (between the delta and seed axes): each entry modulates every cell's
	// runs with its demand schedules, edge events and tolls (see package
	// timeline). An empty axis runs every cell stationary, exactly as before.
	Timelines []TimelineSpec `json:"timelines,omitempty"`
	// Seeds is the number of replicate runs per cell (default 1). Each task
	// derives its own seed from BaseSeed and the task index.
	Seeds int `json:"seeds,omitempty"`
	// BaseSeed feeds the per-task seed derivation (splitmix64).
	BaseSeed uint64 `json:"baseSeed,omitempty"`

	// Run-shape scalars.

	// Horizon is the simulated-time budget per run. Ignored when MaxPhases
	// is set.
	Horizon float64 `json:"horizon,omitempty"`
	// MaxPhases, if positive, sets the budget to MaxPhases bulletin-board
	// phases (horizon = MaxPhases·T per task).
	MaxPhases int `json:"maxPhases,omitempty"`
	// Start selects the initial flow: "uniform" (default), "worst" (each
	// commodity entirely on its highest free-flow-latency path) or "skewed"
	// (90% on that path, the rest spread evenly).
	Start string `json:"start,omitempty"`
	// Delta, Eps parameterise the (δ,ε)-equilibrium accounting; Delta <= 0
	// disables it.
	Delta float64 `json:"delta,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
	// Deltas, when non-empty, turns δ into a sweep axis (between the
	// population and seed axes) overriding the scalar Delta.
	Deltas []float64 `json:"deltas,omitempty"`
	// Weak selects the weak (δ,ε) metric (Definition 4).
	Weak bool `json:"weak,omitempty"`
	// Streak stops a run after this many consecutive phases starting at the
	// configured approximate equilibrium (0 disables).
	Streak int `json:"streak,omitempty"`
}

// Topology selects one instance family plus its parameters, resolved
// through the topology catalog — any registered family (builtin or
// user-added) is selectable by name.
type Topology struct {
	// Family: pigou, braess, kink, links, grid, layered, custom, or any
	// registered topology family.
	Family string `json:"family"`
	// Size is the family's size knob: link count (links), grid side (grid),
	// layer width (layered).
	Size int `json:"size,omitempty"`
	// Layers is the hidden-layer count for layered (default 3).
	Layers int `json:"layers,omitempty"`
	// Beta is the kink slope (family=kink).
	Beta float64 `json:"beta,omitempty"`
	// Instance embeds a full instance spec (family=custom).
	Instance json.RawMessage `json:"instance,omitempty"`
	// Params carries a user-registered family's parameters (decode with
	// catalog.DecodeParams). Builtin families read the flat fields above and
	// also honour overrides placed here (a field present in both spellings
	// resolves to the params value).
	Params json.RawMessage `json:"params,omitempty"`
}

// builder resolves the family through the topology catalog, decoding and
// validating the parameters.
func (t Topology) builder() (topo.Builder, error) {
	args, err := t.args()
	if err != nil {
		return topo.Builder{}, err
	}
	return topo.Catalog.Build(t.Family, args)
}

// args renders the selecting document for the catalog. The embedded custom
// instance is spliced in verbatim rather than re-marshalled: the "custom"
// family labels cells with a digest of the document bytes, and re-encoding
// (compaction, HTML escaping) would silently change the labels of existing
// campaign files across releases.
func (t Topology) args() (json.RawMessage, error) {
	inst := t.Instance
	t.Instance = nil
	b, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	if len(inst) == 0 {
		return b, nil
	}
	// b is a non-empty JSON object (family is never omitted); splice the
	// verbatim instance bytes before the closing brace.
	var buf bytes.Buffer
	buf.Grow(len(b) + len(inst) + len(`,"instance":`))
	buf.Write(b[:len(b)-1])
	buf.WriteString(`,"instance":`)
	buf.Write(inst)
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// Key renders the topology as a stable human-readable cell label. Invalid
// selections fall back to the bare family name; they never survive
// Validate, so only valid topologies are ever aggregated.
func (t Topology) Key() string {
	b, err := t.builder()
	if err != nil {
		return t.Family
	}
	return b.Key
}

// seeded reports whether the instance itself depends on the task seed.
func (t Topology) seeded() bool {
	b, err := t.builder()
	return err == nil && b.Seeded
}

// Build materialises the instance. Only seeded families use the seed.
func (t Topology) Build(seed uint64) (*flow.Instance, error) {
	b, err := t.builder()
	if err != nil {
		return nil, badCampaign(err)
	}
	return b.New(seed)
}

// Validate rejects obviously bad parameters at parse time so errors surface
// before any worker starts.
func (t Topology) Validate() error {
	_, err := t.builder()
	return badCampaign(err)
}

// TimelineSpec is one timelines-axis entry: a timeline block (inlined —
// schedules, events, tolls) plus an optional name used as the entry's cell
// label. Unnamed entries label themselves with a digest of their canonical
// form, so distinct timelines never collide in aggregation keys.
type TimelineSpec struct {
	// Name labels the entry in cell keys and summary tables.
	Name string `json:"name,omitempty"`
	timeline.Spec

	// key caches the resolved label. Expand precomputes it once per axis
	// entry (single-threaded) so workers sharing the entry only read it;
	// hand-constructed specs recompute per call instead of writing.
	key string
}

// Key renders the entry as a stable cell label: the name, or "tl:" plus the
// first 8 hex digits of the timeline's canonical-JSON fingerprint. Nil-safe
// (a nil entry — the stationary run — labels as the empty string).
func (ts *TimelineSpec) Key() string {
	if ts == nil {
		return ""
	}
	if ts.key != "" {
		return ts.key
	}
	return timelineKey(ts)
}

// timelineKey computes the label without touching the cache.
func timelineKey(ts *TimelineSpec) string {
	if ts.Name != "" {
		return ts.Name
	}
	fp, err := canon.Fingerprint(&ts.Spec)
	if err != nil || len(fp) < 8 {
		return "tl"
	}
	return "tl:" + fp[:8]
}

// Validate checks the timeline block (instance-independent shape; commodity
// names and edge addresses resolve per task).
func (ts *TimelineSpec) Validate() error {
	return badCampaign(ts.Spec.Validate())
}

// PolicySpec selects a rerouting policy — a sampling rule plus an optional
// non-default migration rule — resolved through the policy catalogs, so any
// registered sampler or migrator (builtin or user-added) is selectable by
// name.
type PolicySpec struct {
	// Kind is the sampling rule: uniform, replicator (or its alias
	// proportional), boltzmann, or any registered sampler.
	Kind string `json:"kind"`
	// C is the Boltzmann concentration (kind=boltzmann).
	C float64 `json:"c,omitempty"`
	// Migrator overrides the migration rule: "" or "linear" (default,
	// (1/ℓmax)-smooth), "alphalinear" (min{1, α·gain}), "betterresponse"
	// (not α-smooth; incompatible with the "safe" period), or any registered
	// migrator.
	Migrator string `json:"migrator,omitempty"`
	// Alpha is the alphalinear smoothness parameter.
	Alpha float64 `json:"alpha,omitempty"`
	// Params carries user-registered sampler/migrator parameters (decode
	// with catalog.DecodeParams); builtin rules use the flat fields above.
	// Like the flat fields, the object is one per-policy-document namespace
	// shared by the sampler and the migrator selections — registrants should
	// avoid reusing the builtin parameter names (c, alpha) for unrelated
	// custom parameters, as builtins also honour overrides placed here.
	Params json.RawMessage `json:"params,omitempty"`
}

// choices resolves the sampling and migration rules through the policy
// catalogs, decoding and validating parameters.
func (p PolicySpec) choices() (policy.SamplerChoice, policy.MigratorChoice, error) {
	args, err := json.Marshal(p)
	if err != nil {
		return policy.SamplerChoice{}, policy.MigratorChoice{}, err
	}
	sc, err := policy.Samplers.Build(p.Kind, args)
	if err != nil {
		return policy.SamplerChoice{}, policy.MigratorChoice{}, err
	}
	migrator := p.Migrator
	if migrator == "" {
		migrator = "linear"
	}
	mc, err := policy.Migrators.Build(migrator, args)
	if err != nil {
		return policy.SamplerChoice{}, policy.MigratorChoice{}, err
	}
	return sc, mc, nil
}

// Key renders the policy as a stable cell label: the sampler's label plus
// the migrator's suffix (the default linear rule contributes nothing).
// Invalid selections fall back to the bare names; they never survive
// Validate.
func (p PolicySpec) Key() string {
	sc, mc, err := p.choices()
	if err != nil {
		if p.Migrator == "" || p.Migrator == "linear" {
			return p.Kind
		}
		return p.Kind + "+" + p.Migrator
	}
	return sc.Key + mc.KeySuffix
}

// Build materialises the policy for an instance (the default linear migrator
// is sized to the instance's ℓmax).
func (p PolicySpec) Build(inst *flow.Instance) (policy.Policy, error) {
	sc, mc, err := p.choices()
	if err != nil {
		return policy.Policy{}, badCampaign(err)
	}
	migrator, err := mc.New(inst.LMax())
	if err != nil {
		return policy.Policy{}, badCampaign(err)
	}
	return policy.Policy{Sampler: sc.Sampler, Migrator: migrator}, nil
}

// Validate rejects bad sampler/migrator selections at parse time, before
// any instance exists to size the migration rule against.
func (p PolicySpec) Validate() error {
	_, _, err := p.choices()
	return badCampaign(err)
}

// Period is one update-period axis value: either the literal "safe" (resolve
// the Corollary 5 period per instance and policy) or a positive number.
type Period struct {
	// Safe selects the per-task safe period.
	Safe bool
	// T is the fixed period when Safe is false.
	T float64
}

// UnmarshalJSON accepts the string "safe" or a positive JSON number.
func (p *Period) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		if s != "safe" {
			return fmt.Errorf("%w: period string %q (want \"safe\" or a number)", ErrBadCampaign, s)
		}
		*p = Period{Safe: true}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("%w: bad period %s", ErrBadCampaign, b)
	}
	if v <= 0 {
		return fmt.Errorf("%w: period %g must be positive", ErrBadCampaign, v)
	}
	*p = Period{T: v}
	return nil
}

// MarshalJSON renders the period back as "safe" or a number.
func (p Period) MarshalJSON() ([]byte, error) {
	if p.Safe {
		return json.Marshal("safe")
	}
	return json.Marshal(p.T)
}

// String renders the period as a cell label. The shortest lossless float
// form is used so distinct periods never collide in aggregation keys.
func (p Period) String() string {
	if p.Safe {
		return "safe"
	}
	return strconv.FormatFloat(p.T, 'g', -1, 64)
}

// Task is one cell × seed of the expanded campaign: its self-contained spec
// (the cell's axes, the derived seed and the campaign's run-shape scalars)
// plus the bookkeeping identity. IDs are consecutive from 0 in expansion
// order. The derived Seed depends only on (BaseSeed, topology, SeedIndex):
// replicate s of every cell sharing a topology draws the same seed — seeded
// instance families are paired across policies/periods/populations so
// cell-vs-cell comparisons see the same random graphs — and editing other
// axes of a campaign never reshuffles existing seeds. A task's fingerprint
// is its spec's.
type Task struct {
	TaskSpec
	ID        int
	SeedIndex int

	// meta caches the catalog resolution performed once per axis entry at
	// expansion time (labels and seededness only — plain comparable values),
	// so workers do not re-pay the resolution (for custom topologies, a full
	// decode of the embedded instance document) per task. Hand-constructed
	// tasks leave it nil and resolve lazily.
	meta *taskMeta
}

// taskMeta is the expansion-time catalog resolution shared by every task of
// one (topology, policy) axis pair.
type taskMeta struct {
	topoKey   string
	policyKey string
	seeded    bool
}

// topologyLabel, policyLabel and topologySeeded return the cached
// resolution, falling back to fresh catalog lookups for tasks not created by
// Expand.
func (t Task) topologyLabel() string {
	if t.meta != nil {
		return t.meta.topoKey
	}
	return t.Topology.Key()
}

func (t Task) policyLabel() string {
	if t.meta != nil {
		return t.meta.policyKey
	}
	return t.Policy.Key()
}

func (t Task) topologySeeded() bool {
	if t.meta != nil {
		return t.meta.seeded
	}
	return t.Topology.seeded()
}

// cellKey is the shared aggregation-cell label: every axis except the seed.
// Task.CellKey and the aggregation pass must agree on it. The timeline
// component is appended only when present, so stationary campaigns keep
// their historical labels byte for byte.
func cellKey(topology, policy, period, pop string, delta float64, tl string) string {
	key := fmt.Sprintf("%s|%s|T=%s|N=%s|d=%g", topology, policy, period, pop, delta)
	if tl != "" {
		key += "|tl=" + tl
	}
	return key
}

// popLabel renders the population-axis component of a cell label: the agent
// count for fluid/per-agent cells (byte-identical to pre-count releases), or
// "count:<n>" for count-engine cells, so the two engines never collide in a
// cell even at equal populations.
func popLabel(agents int, count int64) string {
	if count > 0 {
		return fmt.Sprintf("count:%d", count)
	}
	return strconv.Itoa(agents)
}

// CellKey is the task's aggregation cell (every axis except the seed).
func (t Task) CellKey() string {
	return cellKey(t.topologyLabel(), t.policyLabel(), t.Period.String(), popLabel(t.Agents, t.Count), t.Delta, t.Timeline.Key())
}

// Validate checks the campaign's axes and scalars without building instances.
func (c *Campaign) Validate() error {
	if len(c.Topologies) == 0 {
		return fmt.Errorf("%w: no topologies", ErrBadCampaign)
	}
	if len(c.Policies) == 0 {
		return fmt.Errorf("%w: no policies", ErrBadCampaign)
	}
	if len(c.UpdatePeriods) == 0 {
		return fmt.Errorf("%w: no update periods", ErrBadCampaign)
	}
	for _, t := range c.Topologies {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	for _, p := range c.Policies {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	for _, n := range c.Agents {
		if n < 0 {
			return fmt.Errorf("%w: agents %d must be >= 0", ErrBadCampaign, n)
		}
		if n > engine.MaxAgentPopulation {
			return fmt.Errorf("%w: agents %d exceeds the per-agent engine's cap %d; put the population on the counts axis (the mean-field count engine runs the identical process at any size)", ErrBadCampaign, n, engine.MaxAgentPopulation)
		}
	}
	for _, n := range c.Counts {
		if n < 1 {
			return fmt.Errorf("%w: counts %d must be >= 1 (0-population cells belong on the agents axis as the fluid limit)", ErrBadCampaign, n)
		}
		if n > meanfield.MaxPopulation {
			return fmt.Errorf("%w: counts %d exceeds the exactly representable population %d", ErrBadCampaign, n, meanfield.MaxPopulation)
		}
	}
	if c.Seeds < 0 {
		return fmt.Errorf("%w: seeds %d must be >= 0", ErrBadCampaign, c.Seeds)
	}
	shape := Shape{Horizon: c.Horizon, MaxPhases: c.MaxPhases, Start: c.Start, Delta: c.Delta, Eps: c.Eps,
		Accounting: c.Delta > 0 || len(c.Deltas) > 0, Streak: c.Streak}
	if err := shape.Validate(ErrBadCampaign); err != nil {
		return err
	}
	for _, d := range c.Deltas {
		if !(d > 0) {
			return fmt.Errorf("%w: delta axis value %g must be positive", ErrBadCampaign, d)
		}
	}
	for _, p := range c.UpdatePeriods {
		if !p.Safe && !(p.T > 0 && p.T < math.Inf(1)) {
			return fmt.Errorf("%w: update period %g must be \"safe\" or positive and finite", ErrBadCampaign, p.T)
		}
	}
	for i := range c.Timelines {
		if err := c.Timelines[i].Validate(); err != nil {
			return fmt.Errorf("timelines[%d]: %w", i, err)
		}
	}
	return nil
}

// Shape is the run shape every declarative run carries: a campaign's
// scalars (which its task specs copy) or a scenario file's fields.
type Shape struct {
	Horizon   float64
	MaxPhases int
	Start     string
	Delta     float64
	Eps       float64
	// Accounting reports (δ,ε) accounting enabled: a positive Delta, or a
	// campaign's deltas axis.
	Accounting  bool
	Streak      int
	RecordEvery int
}

// Validate is the one parse-time check of the run shape, so campaigns, task
// specs and scenario files reject the same values with the same message
// after the caller's sentinel (ErrBadCampaign, or the scenario package's).
func (s Shape) Validate(sentinel error) error {
	if math.IsNaN(s.Horizon) || math.IsInf(s.Horizon, 0) || math.IsNaN(s.Delta) || math.IsNaN(s.Eps) {
		return fmt.Errorf("%w: horizon/delta/eps must be finite", sentinel)
	}
	if s.Horizon <= 0 && s.MaxPhases <= 0 {
		return fmt.Errorf("%w: need horizon > 0 or maxPhases > 0", sentinel)
	}
	if s.MaxPhases < 0 {
		return fmt.Errorf("%w: maxPhases %d must be >= 0", sentinel, s.MaxPhases)
	}
	if s.RecordEvery < 0 {
		return fmt.Errorf("%w: recordEvery %d must be >= 0", sentinel, s.RecordEvery)
	}
	if s.Streak < 0 {
		return fmt.Errorf("%w: streak %d must be >= 0", sentinel, s.Streak)
	}
	if s.Eps < 0 && s.Accounting {
		return fmt.Errorf("%w: eps %g must be >= 0 when delta accounting is enabled", sentinel, s.Eps)
	}
	if _, err := engine.LookupStart(s.Start); err != nil {
		return catalog.WrapSentinel(sentinel, err)
	}
	return nil
}

// Expand materialises the deterministic task list: the cross product of the
// axes in declaration order with seeds innermost. Every task's derived seed
// is a pure function of (BaseSeed, topology, SeedIndex) — see Task.
func (c *Campaign) Expand() ([]Task, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// The population axis merges Agents and Counts (Agents entries first);
	// an empty axis degenerates to one fluid-limit entry, as before.
	type popEntry struct {
		agents int
		count  int64
	}
	pops := make([]popEntry, 0, len(c.Agents)+len(c.Counts))
	for _, n := range c.Agents {
		pops = append(pops, popEntry{agents: n})
	}
	for _, n := range c.Counts {
		pops = append(pops, popEntry{count: n})
	}
	if len(pops) == 0 {
		pops = []popEntry{{}}
	}
	deltas := c.Deltas
	if len(deltas) == 0 {
		deltas = []float64{c.Delta}
	}
	// The timeline axis degenerates to one stationary (nil) entry. Labels
	// are resolved here, once per entry, so workers sharing an entry's
	// pointer never write to it.
	tls := make([]*TimelineSpec, 0, len(c.Timelines))
	for i := range c.Timelines {
		c.Timelines[i].key = timelineKey(&c.Timelines[i])
		tls = append(tls, &c.Timelines[i])
	}
	if len(tls) == 0 {
		tls = []*TimelineSpec{nil}
	}
	seeds := c.Seeds
	if seeds == 0 {
		seeds = 1
	}
	tasks := make([]Task, 0, len(c.Topologies)*len(c.Policies)*len(c.UpdatePeriods)*len(pops)*len(deltas)*len(tls)*seeds)
	spec := TaskSpec{Horizon: c.Horizon, MaxPhases: c.MaxPhases, Start: c.Start, Eps: c.Eps, Weak: c.Weak, Streak: c.Streak}
	id := 0
	for _, tp := range c.Topologies {
		// Resolve the catalog once per axis entry; every task of the entry
		// shares the result instead of re-paying resolution in the workers.
		b, err := tp.builder()
		if err != nil {
			return nil, badCampaign(err)
		}
		// Seeds are a pure function of (BaseSeed, topology, replicate):
		// fold the topology label into the base so distinct topologies get
		// independent streams while cells sharing one stay paired.
		h := fnv.New64a()
		h.Write([]byte(b.Key))
		topoBase := c.BaseSeed ^ h.Sum64()
		spec.Topology = tp
		for _, pol := range c.Policies {
			meta := &taskMeta{topoKey: b.Key, policyKey: pol.Key(), seeded: b.Seeded}
			spec.Policy = pol
			for _, per := range c.UpdatePeriods {
				spec.Period = per
				for _, n := range pops {
					spec.Agents, spec.Count = n.agents, n.count
					for _, d := range deltas {
						spec.Delta = d
						for _, tl := range tls {
							spec.Timeline = tl
							for s := 0; s < seeds; s++ {
								spec.Seed = topo.DeriveSeed(topoBase, uint64(s))
								tasks = append(tasks, Task{TaskSpec: spec, ID: id, SeedIndex: s, meta: meta})
								id++
							}
						}
					}
				}
			}
		}
	}
	return tasks, nil
}

// ParseCampaign decodes a JSON campaign specification, rejecting unknown
// fields, and validates it.
func ParseCampaign(r io.Reader) (*Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCampaign, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
