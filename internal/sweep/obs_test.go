package sweep

import (
	"context"
	"strings"
	"testing"

	"wardrop/internal/obs"
)

// TestRunPopulatesTaskHistograms pins the pool's instrumentation: one
// aggregate sample per simulated unit (duplicates clone a
// representative and are not re-timed) and a per-worker histogram per pool
// slot.
func TestRunPopulatesTaskHistograms(t *testing.T) {
	c := parseDemo(t)
	tasks, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	units, err := Units(tasks)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	res, err := Run(context.Background(), parseDemo(t), Options{Workers: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(tasks) {
		t.Fatalf("records = %d, want %d", len(res.Records), len(tasks))
	}

	agg := reg.FindHistogram("sweep_task_ms")
	if agg == nil || agg.Count() != int64(len(units)) {
		t.Fatalf("aggregate samples = %v, want one per unit (%d)", agg, len(units))
	}
	perWorker := 0
	var perWorkerCount int64
	for _, name := range reg.Names() {
		if strings.HasPrefix(name, `sweep_task_ms{worker=`) {
			perWorker++
			perWorkerCount += reg.FindHistogram(name).Count()
		}
	}
	if perWorker != 3 {
		t.Fatalf("per-worker histograms = %d, want 3 (have %v)", perWorker, reg.Names())
	}
	if perWorkerCount != agg.Count() {
		t.Fatalf("per-worker samples = %d, aggregate = %d", perWorkerCount, agg.Count())
	}
	if agg.Quantile(0.99) < agg.Quantile(0.50) {
		t.Fatalf("p99 %g < p50 %g", agg.Quantile(0.99), agg.Quantile(0.50))
	}
}
