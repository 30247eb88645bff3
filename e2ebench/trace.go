package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call recorded by the benchmark around a layer
// boundary. Spans of one operation share a trace id; Parent names the span
// that caused this one (0 for a root). Times are nanoseconds since the
// tracer was created.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Tag qualifies the span, e.g. the cache tier a request was served
	// from.
	Tag string `json:"tag,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil through the same code.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span in the given trace under parent (0: a root). A zero
// trace starts a new trace named after the span's own id.
func (t *tracer) start(name string, trace, parent uint64) openSpan {
	if t == nil {
		return openSpan{}
	}
	id := t.ids.Add(1)
	if trace == 0 {
		trace = id
	}
	return openSpan{t: t, s: span{Name: name, Trace: trace, ID: id, Parent: parent, Start: t.now()}}
}

// end closes the span with an optional tag.
func (o openSpan) end(tag string) {
	if o.t == nil {
		return
	}
	o.s.End = o.t.now()
	o.s.Tag = tag
	o.t.add(o.s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// time records one root span around fn.
func (t *tracer) time(name string, fn func()) {
	sp := t.start(name, 0, 0)
	fn()
	sp.end("")
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover (overlapping
// children are counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStat selects spans by name (and tag, when the key holds "name|tag")
// and aggregates their self or total times.
type spanStat struct {
	metric string
	key    string
	total  bool    // total duration instead of self time
	q      float64 // quantile
	scale  float64 // nanoseconds per reported unit
}

const (
	perS  = 1e9
	perMS = 1e6
	perUS = 1e3
)

// spanStats lists the per-layer metrics taken from spans.
var spanStats = func() []spanStat {
	s := []spanStat{
		{"fluid_s", "sim.run.fluid", true, 0.5, perS},
		{"bestresponse_s", "sim.run.bestresponse", true, 0.5, perS},
		{"count_s", "sim.run.count", true, 0.5, perS},
		{"agents_s", "sim.run.agents", true, 0.5, perS},
		{"topo.build_s", "topo.build", false, 0.5, perS},
		{"graph.kshortest_s", "graph.kshortest", false, 0.5, perS},
		{"flow.compile_ms", "flow.compile", false, 0.5, perMS},
		{"flow.eval_us", "flow.eval", false, 0.5, perUS},
		{"flow.eval_serial_us", "flow.eval_serial", false, 0.5, perUS},
		{"flow.potential_us", "flow.potential", false, 0.5, perUS},
		{"flow.refresh_us", "flow.refresh", false, 0.5, perUS},
		{"latency.values_us", "latency.values", false, 0.5, perUS},
		{"policy.fill_us", "policy.fill", false, 0.5, perUS},
		{"dynamics.fluid_phase_us_p50", "dynamics.fluid_phase", false, 0.5, perUS},
		{"dynamics.fluid_phase_us_p99", "dynamics.fluid_phase", false, 0.99, perUS},
		{"dynamics.br_phase_us_p50", "dynamics.br_phase", false, 0.5, perUS},
		{"dynamics.br_phase_us_p99", "dynamics.br_phase", false, 0.99, perUS},
		{"agents.phase_us_p50", "agents.phase", false, 0.5, perUS},
		{"agents.phase_us_p99", "agents.phase", false, 0.99, perUS},
		{"meanfield.phase_us_p50", "meanfield.phase", false, 0.5, perUS},
		{"meanfield.phase_us_p99", "meanfield.phase", false, 0.99, perUS},
		{"meanfield.multinomial_us", "meanfield.multinomial", false, 0.5, perUS},
		{"scenario.parse_us", "scenario.parse", false, 0.5, perUS},
		{"scenario.fingerprint_us", "scenario.fingerprint", false, 0.5, perUS},
		{"scenario.encode_us", "scenario.encode", false, 0.5, perUS},
		{"store.get_us", "store.get", false, 0.5, perUS},
		{"store.put_us", "store.put", false, 0.5, perUS},
		{"net.transport_us_p50", "client.request", false, 0.5, perUS},
		{"dispatch.rtt_ms_p50", "dispatch.rtt", true, 0.5, perMS},
		{"dispatch.rtt_ms_p99", "dispatch.rtt", true, 0.99, perMS},
		{"dispatch.task_overhead_us_p50", "dispatch.rtt", false, 0.5, perUS},
	}
	for _, t := range tiers {
		s = append(s,
			spanStat{"serve.handler_us_p50." + t, "serve.handler|" + t, false, 0.5, perUS},
			spanStat{"serve.handler_us_p99." + t, "serve.handler|" + t, false, 0.99, perUS})
	}
	return s
}()

// spanMetrics sets every span-derived per-layer metric. A metric with no
// spans is an error, as a metric that was not measured is in write.
func spanMetrics(spans []span, rep *report) error {
	self := selfTimes(spans)
	selfBy := make(map[string][]float64)
	totalBy := make(map[string][]float64)
	for i, s := range spans {
		for _, key := range []string{s.Name, s.Name + "|" + s.Tag} {
			selfBy[key] = append(selfBy[key], float64(self[i]))
			totalBy[key] = append(totalBy[key], float64(s.End-s.Start))
		}
	}
	var empty []string
	for _, st := range spanStats {
		xs := selfBy[st.key]
		if st.total {
			xs = totalBy[st.key]
		}
		if len(xs) == 0 {
			empty = append(empty, st.metric)
			continue
		}
		def := perLayer[indexOf(perLayer, st.metric)]
		rep.set(st.metric, def.unit, quantile(xs, st.q)/st.scale)
	}
	if len(empty) > 0 {
		return fmt.Errorf("no spans for: %s", strings.Join(empty, ", "))
	}
	return nil
}

func indexOf(list []metricDef, name string) int {
	for i, m := range list {
		if m.name == name {
			return i
		}
	}
	panic("unknown metric " + name)
}
