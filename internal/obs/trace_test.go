package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

func phase(i int, t, phi float64) dynamics.PhaseInfo {
	return dynamics.PhaseInfo{Index: i, Time: t, Potential: phi}
}

func TestTracerSpans(t *testing.T) {
	tr := NewTracer(8)
	tr.ObservePhase(phase(0, 0, 5))
	tr.ObservePhase(phase(1, 0.25, 3))
	tr.MarkEvent("block edge 3", 0.25)
	tr.ObservePhase(phase(2, 0.5, 2.5))

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Kind != SpanPhase || spans[0].Residual != 0 {
		t.Fatalf("first span = %+v, want phase span with zero residual", spans[0])
	}
	if spans[1].Residual != 2 {
		t.Fatalf("second span residual = %g, want |3-5| = 2", spans[1].Residual)
	}
	if spans[2].Kind != SpanEvent || spans[2].Label != "block edge 3" {
		t.Fatalf("event span = %+v", spans[2])
	}
	if spans[3].Residual != 0.5 {
		t.Fatalf("residual after event = %g, want |2.5-3| = 0.5 (events do not move the baseline)", spans[3].Residual)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.ObservePhase(phase(i, float64(i), 0))
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want ring capacity 4", len(spans))
	}
	for i, sp := range spans {
		if sp.Phase != 6+i {
			t.Fatalf("span %d phase = %d, want %d (oldest-first newest window)", i, sp.Phase, 6+i)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset must clear spans and the dropped count")
	}
	tr.ObservePhase(phase(0, 0, 7))
	if got := tr.Spans(); len(got) != 1 || got[0].Residual != 0 {
		t.Fatalf("after Reset the residual baseline must restart: %+v", got)
	}
}

func TestTracerOnSpanStream(t *testing.T) {
	tr := NewTracer(2) // smaller than the span count: streaming must still see all
	var streamed []Span
	tr.OnSpan(func(sp Span) { streamed = append(streamed, sp) })
	for i := 0; i < 5; i++ {
		tr.ObservePhase(phase(i, float64(i), 0))
	}
	if len(streamed) != 5 {
		t.Fatalf("streamed %d spans, want all 5 despite ring capacity 2", len(streamed))
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.ObservePhase(phase(0, 0, 5))
	tr.MarkEvent("segment t=0.5", 0.5)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []Span
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, sp)
	}
	if len(lines) != 2 || lines[0].Kind != SpanPhase || lines[1].Label != "segment t=0.5" {
		t.Fatalf("JSONL round trip = %+v", lines)
	}
	// Schema spot check: the dump uses the documented field names.
	var raw bytes.Buffer
	_ = tr.WriteJSONL(&raw)
	first, _, _ := strings.Cut(raw.String(), "\n")
	for _, key := range []string{`"kind"`, `"phase"`, `"t"`, `"phi"`, `"residual"`, `"wallNs"`} {
		if !strings.Contains(first, key) {
			t.Fatalf("JSONL line %s missing %s", first, key)
		}
	}
}

// TestTracerFluidRunAllocationFree attaches a Tracer to the fluid engine and
// pins the per-phase loop at zero marginal allocations — the engines'
// steady-state contract must survive instrumentation.
func TestTracerFluidRunAllocationFree(t *testing.T) {
	inst, err := topo.Braess()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	f0 := inst.UniformFlow()
	ws := flow.NewWorkspace()
	tr := NewTracer(256)
	cfg := dynamics.Config{
		Policy:       pol,
		UpdatePeriod: 0.25,
		Integrator:   dynamics.Uniformization,
		RunShape:     dynamics.RunShape{Workspace: ws, Observer: tr},
	}
	run := func(phases int) {
		cfg.Horizon = float64(phases) * cfg.UpdatePeriod
		tr.Reset()
		if _, err := dynamics.Run(context.Background(), inst, cfg, f0); err != nil {
			t.Fatal(err)
		}
	}
	run(1) // warm the workspace before measuring
	short := testing.AllocsPerRun(5, func() { run(10) })
	long := testing.AllocsPerRun(5, func() { run(110) })
	if extra := long - short; extra > 0.5 {
		t.Fatalf("traced fluid run: %g allocations per 100 extra phases, want 0", extra)
	}
	run(20)
	if got := len(tr.Spans()); got < 20 {
		t.Fatalf("tracer recorded %d spans for a 20-phase run", got)
	}
}
