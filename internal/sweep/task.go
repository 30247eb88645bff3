package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"wardrop/internal/canon"
	"wardrop/internal/flow"
)

// TaskSpec is the JSON document of one self-contained sweep task: the task's
// run identity (the axes of one campaign cell × seed) together with the
// campaign-level run-shape scalars. Every expanded Task carries its spec. It
// is the wire unit of distributed sweeps — the body of POST /v1/tasks — and
// its fingerprint groups duplicate tasks (see Units) and is the durable cache
// key under which the task's record is memoized, so identical cells from
// different campaigns (or re-submitted campaigns) dedup across runs.
type TaskSpec struct {
	Topology Topology   `json:"topology"`
	Policy   PolicySpec `json:"policy"`
	Period   Period     `json:"period"`
	// Agents / Count select the population (at most one may be positive;
	// both zero runs the fluid limit).
	Agents int   `json:"agents,omitempty"`
	Count  int64 `json:"count,omitempty"`
	// Delta is the (δ,ε) accounting width (<= 0 disables).
	Delta float64 `json:"delta,omitempty"`
	// Timeline is the task's timelines-axis entry (absent = stationary run).
	// Expanded tasks of one axis entry share the pointer; the entry is never
	// mutated after expansion.
	Timeline *TimelineSpec `json:"timeline,omitempty"`
	// Seed is the derived per-task seed, already resolved by the campaign
	// expansion — remote workers use it verbatim.
	Seed uint64 `json:"seed"`

	// Campaign run-shape scalars (see Campaign for semantics).
	Horizon   float64 `json:"horizon,omitempty"`
	MaxPhases int     `json:"maxPhases,omitempty"`
	Start     string  `json:"start,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
	Weak      bool    `json:"weak,omitempty"`
	Streak    int     `json:"streak,omitempty"`
}

// campaign reconstitutes the one-cell campaign Validate checks.
func (ts *TaskSpec) campaign() *Campaign {
	c := &Campaign{
		Topologies:    []Topology{ts.Topology},
		Policies:      []PolicySpec{ts.Policy},
		UpdatePeriods: []Period{ts.Period},
		Horizon:       ts.Horizon,
		MaxPhases:     ts.MaxPhases,
		Start:         ts.Start,
		Delta:         ts.Delta,
		Eps:           ts.Eps,
		Weak:          ts.Weak,
		Streak:        ts.Streak,
	}
	if ts.Agents > 0 {
		c.Agents = []int{ts.Agents}
	}
	if ts.Count > 0 {
		c.Counts = []int64{ts.Count}
	}
	if ts.Timeline != nil {
		c.Timelines = []TimelineSpec{*ts.Timeline}
	}
	return c
}

// Validate checks the spec the way campaign validation would: component
// selections resolve through the catalogs, populations and run-shape scalars
// are in range.
func (ts *TaskSpec) Validate() error {
	if ts.Agents > 0 && ts.Count > 0 {
		return fmt.Errorf("%w: task selects both agents %d and count %d", ErrBadCampaign, ts.Agents, ts.Count)
	}
	return ts.campaign().Validate()
}

// Fingerprint is the canonical-JSON SHA-256 of the spec — the key Units
// groups duplicate tasks by, and the distributed layer's sharding and cache
// key. It covers every input that determines the record, so it is safe as a
// durable cross-campaign identity.
func (ts *TaskSpec) Fingerprint() (string, error) {
	return canon.Fingerprint(ts)
}

// ErrorRecord renders a submission-level failure as the task's record, with
// the identity fields filled the same way a local per-task failure would
// fill them.
func (ts *TaskSpec) ErrorRecord(err error) Record {
	return errorRecord(Task{TaskSpec: *ts}, err)
}

// ParseTaskSpec decodes a JSON task specification, rejecting unknown fields,
// and validates it.
func ParseTaskSpec(r io.Reader) (*TaskSpec, error) {
	var ts TaskSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ts); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCampaign, err)
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return &ts, nil
}

// InstanceCache memoizes built instances and their Frank–Wolfe reference
// potentials across task runs — the per-campaign cache sweep.Run builds
// internally, exported so a serving process can keep one for the lifetime of
// the server and pay each topology cell's construction and Φ* solve once
// across every /v1/tasks job it executes. Safe for concurrent use.
type InstanceCache struct {
	m sync.Map
}

// NewInstanceCache returns an empty cache.
func NewInstanceCache() *InstanceCache { return &InstanceCache{} }

// RunTaskSpec executes one task spec with the same isolation and semantics
// as a task inside sweep.Run: failures (including panics) come back as the
// record's Error field, and the second return reports a run aborted by
// context cancellation (no usable record). The record's ID and SeedIndex
// are zero — the spec does not carry bookkeeping identity; submitters
// rebind them. cache may be nil for one-shot runs.
func RunTaskSpec(ctx context.Context, ts *TaskSpec, cache *InstanceCache, ws *flow.Workspace) (Record, bool) {
	if cache == nil {
		cache = NewInstanceCache()
	}
	return runTaskIsolated(ctx, Task{TaskSpec: *ts}, &cache.m, ws)
}
