package dispatch

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"wardrop/internal/obs"
	"wardrop/internal/serve"
	"wardrop/internal/sweep"
)

// TestRunPopulatesMetrics pins the coordinator's instrumentation on a clean
// distributed run: per-unit queue-wait and per-attempt transport samples,
// per-node in-flight gauges registered, and quiet failure counters.
func TestRunPopulatesMetrics(t *testing.T) {
	_, _, urls := startWorkers(t, 2, serve.Config{Workers: 2})
	camp := parseCampaign(t, campaignDoc)
	tasks, err := camp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	units, err := sweep.Units(tasks)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	res, err := Run(context.Background(), parseCampaign(t, campaignDoc), urls, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(tasks) {
		t.Fatalf("records = %d, want %d", len(res.Records), len(tasks))
	}

	qw := reg.FindHistogram("dispatch_queue_wait_ms")
	if qw == nil || qw.Count() != int64(len(units)) {
		t.Fatalf("queue-wait samples = %v, want one per unit (%d)", qw, len(units))
	}
	tr := reg.FindHistogram("dispatch_transport_ms")
	if tr == nil || tr.Count() < int64(len(units)) {
		t.Fatalf("transport samples = %v, want >= %d", tr, len(units))
	}
	names := make(map[string]bool)
	for _, n := range reg.Names() {
		names[n] = true
	}
	for _, url := range urls {
		if !names[`dispatch_inflight{node="`+url+`"}`] {
			t.Fatalf("per-node in-flight gauge for %s not registered (have %v)", url, reg.Names())
		}
	}
	if got := reg.Counter("dispatch_node_deaths_total", "").Value(); got != 0 {
		t.Fatalf("node deaths = %d on a healthy fleet", got)
	}
	if got := reg.Counter("dispatch_rehomed_total", "").Value(); got != 0 {
		t.Fatalf("re-homed units = %d on a healthy fleet", got)
	}
}

// TestNodeDeathMovesCounters kills one of three workers mid-campaign and
// expects the death and re-home counters to move with the failover.
func TestNodeDeathMovesCounters(t *testing.T) {
	camp := parseCampaign(t, strings.Replace(campaignDoc, `"seeds": 3`, `"seeds": 9`, 1))
	_, _, urls := startWorkers(t, 3, serve.Config{Workers: 2})
	kill := &failNode{from: 3}
	mustUnits(t, camp, kill.from)

	reg := obs.NewRegistry()
	res, err := Run(context.Background(), camp, urls, Options{
		Client:  &http.Client{Transport: kill},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records survived the node death")
	}
	if got := reg.Counter("dispatch_node_deaths_total", "").Value(); got != 1 {
		t.Fatalf("node deaths = %d, want 1", got)
	}
	// The failed request's unit, at least, moves to a survivor.
	if got := reg.Counter("dispatch_rehomed_total", "").Value(); got < 1 {
		t.Fatalf("re-homed units = %d, want >= 1", got)
	}
}
