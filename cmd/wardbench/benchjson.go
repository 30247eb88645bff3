package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"

	"wardrop/internal/bench"
	"wardrop/internal/report"
)

// benchReport is the BENCH_kernel.json document: per-experiment wall time
// and headline metric, the kernel-vs-reference micro benchmarks, and the
// derived speedup ratios — the machine-readable perf trajectory tracked
// across PRs (the CI uploads the file as an artifact).
type benchReport struct {
	// Schema versions the document shape.
	Schema string `json:"schema"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	// MaxProcs records the parallelism the measurements ran under (instance
	// builds search paths on up to GOMAXPROCS goroutines).
	MaxProcs int `json:"maxprocs"`
	// GridN is the kernel suite's grid size (0: suite skipped).
	GridN int `json:"gridN,omitempty"`
	// Experiments holds one entry per experiment run in this invocation.
	Experiments []expEntry `json:"experiments,omitempty"`
	// Kernel holds the kernel-vs-reference measurements.
	Kernel []bench.Measurement `json:"kernel,omitempty"`
	// Speedups maps workload prefix to reference-ns / kernel-ns.
	Speedups map[string]float64 `json:"speedups,omitempty"`
	// KernelScaling holds the kernelScaling suite: one row per instance
	// size with reference and kernel ns per full evaluation pass, their
	// ratio and the warm-run cost (empty: suite skipped).
	KernelScaling []bench.ScalingMeasurement `json:"kernelScaling,omitempty"`
	// Serve holds the serving-layer suite: per-request cost and derived
	// requests/sec for cached vs uncached scenario requests.
	Serve []bench.ServeMeasurement `json:"serve,omitempty"`
	// ServeLoad holds the concurrent-client ramp: throughput and latency
	// percentiles per client-count step, plus the saturation point (nil:
	// suite skipped).
	ServeLoad *bench.LoadSummary `json:"serveLoad,omitempty"`
	// Meanfield holds the population-scaling suite: ns/phase for the count
	// engine (10^3..10^7 agents) next to the per-agent engine
	// (10^3..10^5).
	Meanfield []bench.PopulationMeasurement `json:"meanfield,omitempty"`
	// CountFlatness is NsPerPhase(count, 10^6) / NsPerPhase(count, 10^3) —
	// the count engine's headline: near 1 where the per-agent engine's
	// ratio tracks the population ratio.
	CountFlatness float64 `json:"countFlatness,omitempty"`
	// Dispatch holds the distributed-sweep suite: per-task campaign
	// throughput for the local executor vs the coordinator over a cold and a
	// warm two-node fleet.
	Dispatch []bench.DispatchMeasurement `json:"dispatch,omitempty"`
}

// expEntry records one experiment's cost and headline artefact number.
type expEntry struct {
	ID     string  `json:"id"`
	WallNs float64 `json:"wallNs"`
	// AllocsPerOp is the experiment run's heap allocation count.
	AllocsPerOp int64 `json:"allocsPerOp"`
	// Metric names the experiment's headline number (empty when the
	// experiment has no scalar headline).
	Metric string  `json:"metric,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// headline extracts the experiment's headline metric from its table — the
// same cells the root benchmark harness (bench_test.go) reports.
func headline(id string, tbl *report.Table) (string, float64, bool) {
	cell := func(row, col int) (float64, bool) {
		if row < 0 || row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
			return 0, false
		}
		v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
		return v, err == nil
	}
	last := len(tbl.Rows) - 1
	switch id {
	case "e1":
		worst := 0.0
		for r := range tbl.Rows {
			if v, ok := cell(r, 4); ok && v > worst {
				worst = v
			}
		}
		return "worst-rel-amp-err", worst, true
	case "e2":
		ok := 0.0
		for _, row := range tbl.Rows {
			if len(row) > 4 && row[4] == "true" {
				ok++
			}
		}
		return "within-eps-fraction", ok / float64(len(tbl.Rows)), true
	case "e3":
		worst := 0.0
		for r := range tbl.Rows {
			if v, ok := cell(r, 5); ok && v > worst {
				worst = v
			}
		}
		return "worst-phi-gap", worst, true
	case "e4":
		worst := 0.0
		for r := range tbl.Rows {
			if v, ok := cell(r, 2); ok && v > worst {
				worst = v
			}
		}
		return "worst-lemma3-residual", worst, true
	case "e5":
		if v, ok := cell(1, 2); ok {
			return "phi-final-at-Tsafe", v, true
		}
	case "e6", "e6c", "e8", "e8c":
		if v, ok := cell(last, 2); ok {
			return "rounds-at-max-m", v, true
		}
	case "e7", "e7c":
		if v, ok := cell(last, 1); ok {
			return "rounds-at-min-delta", v, true
		}
	case "e9":
		if v, ok := cell(last, 4); ok {
			return "br-osc-score", v, true
		}
	case "e10":
		if v, ok := cell(last, 1); ok {
			return "sup-err-at-max-N", v, true
		}
	case "e11":
		if v, ok := cell(0, 3); ok {
			return "flow-dev-at-min-eta", v, true
		}
	case "e12":
		if v, ok := cell(last, 3); ok {
			return "replicator-rounds-at-max-k", v, true
		}
	case "ablation":
		if v, ok := cell(0, 2); ok {
			return "rk4-err-at-coarsest-step", v, true
		}
	}
	return "", 0, false
}

// writeBenchJSON assembles and writes the report. gridN > 0 runs the
// kernel-vs-reference suite (a few benchmark-seconds per measurement);
// scaleSizes is the edge counts for the kernelScaling suite (nil skips it);
// withServe runs the serving-layer suite; loadClients the client counts of
// the serveLoad ramp (nil skips it); withMeanfield the population-scaling
// suite; withDispatch the distributed-sweep suite.
func writeBenchJSON(w io.Writer, gridN int, scaleSizes []int, withServe bool, loadClients []int, withMeanfield, withDispatch bool, exps []expEntry) error {
	rep := benchReport{
		Schema:      "wardrop/bench/v1",
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		MaxProcs:    runtime.GOMAXPROCS(0),
		GridN:       gridN,
		Experiments: exps,
	}
	if gridN > 0 {
		ms, err := bench.KernelSuite(gridN)
		if err != nil {
			return fmt.Errorf("kernel suite: %w", err)
		}
		rep.Kernel = ms
		rep.Speedups = map[string]float64{}
		for _, prefix := range []string{"fluid/grid", "eval/grid", "delta/grid", "delta/links"} {
			s, err := bench.Speedup(ms, prefix)
			if err != nil {
				return err
			}
			rep.Speedups[prefix] = s
		}
	}
	if len(scaleSizes) > 0 {
		sm, err := bench.ScalingSuite(scaleSizes)
		if err != nil {
			return fmt.Errorf("scaling suite: %w", err)
		}
		rep.KernelScaling = sm
	}
	if withServe {
		sm, err := bench.ServeSuite()
		if err != nil {
			return fmt.Errorf("serve suite: %w", err)
		}
		rep.Serve = sm
	}
	if len(loadClients) > 0 {
		ls, err := bench.LoadSuite(loadClients, 0)
		if err != nil {
			return fmt.Errorf("serve load suite: %w", err)
		}
		rep.ServeLoad = ls
	}
	if withMeanfield {
		pm, err := bench.MeanfieldSuite(nil, nil)
		if err != nil {
			return fmt.Errorf("meanfield suite: %w", err)
		}
		rep.Meanfield = pm
		if r, err := bench.PhaseCostRatio(pm, "count", 1_000_000, 1_000); err == nil {
			rep.CountFlatness = r
		}
	}
	if withDispatch {
		dm, err := bench.DispatchSuite()
		if err != nil {
			return fmt.Errorf("dispatch suite: %w", err)
		}
		rep.Dispatch = dm
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
