package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash/fnv"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two lists must
// match BENCHMARK.json (TestBenchmarkJSONMatchesLists pins that).
type metricDef struct{ name, unit string }

// endToEnd is what every untraced run reports. Every workload is a stream
// of operations of its own kind (an engine run, a scenario document, a
// campaign task's round trip), so the timings mean the same thing on all
// of them; README.md gives each workload's operation.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// tiers are the serve result tiers the handler metrics split by: the three
// X-Cache values plus asynchronous job submissions.
var tiers = []string{"hit", "hit-store", "miss", "job"}

// engineKinds are the engines whose per-phase allocations are counted.
var engineKinds = []string{"fluid", "bestresponse", "count", "agents"}

// perLayer is what every traced run reports.
var perLayer = func() []metricDef {
	l := []metricDef{
		{"fail_ratio", "ratio"},
		{"bench.traced_ops_per_s", "1/s"},
		{"bench.p99_ms", "ms"},
		{"fluid_s", "s"},
		{"bestresponse_s", "s"},
		{"count_s", "s"},
		{"agents_s", "s"},
		{"max_rps", "1/s"},
		{"local_tasks_per_s", "1/s"},
		{"cold_tasks_per_s", "1/s"},
		{"warm_tasks_per_s", "1/s"},
		{"topo.build_s", "s"},
		{"graph.kshortest_s", "s"},
		{"flow.compile_ms", "ms"},
		{"flow.eval_us", "us"},
		{"flow.eval_serial_us", "us"},
		{"flow.potential_us", "us"},
		{"flow.refresh_us", "us"},
		{"flow.eval_bytes", "bytes"},
		{"latency.values_us", "us"},
		{"policy.fill_us", "us"},
		{"dynamics.fluid_phase_us_p50", "us"},
		{"dynamics.fluid_phase_us_p99", "us"},
		{"dynamics.br_phase_us_p50", "us"},
		{"dynamics.br_phase_us_p99", "us"},
		{"agents.phase_us_p50", "us"},
		{"agents.phase_us_p99", "us"},
		{"meanfield.phase_us_p50", "us"},
		{"meanfield.phase_us_p99", "us"},
		{"meanfield.multinomial_us", "us"},
		{"obs.trace_overhead_pct", "%"},
		{"scenario.parse_us", "us"},
		{"scenario.fingerprint_us", "us"},
		{"scenario.encode_us", "us"},
		{"serve.queue_wait_ms_p99", "ms"},
		{"serve.run_ms_p50", "ms"},
		{"serve.refused", "count"},
		{"serve.engine_runs", "count"},
		{"serve.stream_ms_p50", "ms"},
		{"store.get_us", "us"},
		{"store.put_us", "us"},
		{"net.transport_us_p50", "us"},
		{"loadgen.lag_ms_p99", "ms"},
		{"sweep.task_ms_p50", "ms"},
		{"dispatch.rtt_ms_p50", "ms"},
		{"dispatch.rtt_ms_p99", "ms"},
		{"dispatch.queue_wait_ms_p50", "ms"},
		{"dispatch.task_overhead_us_p50", "us"},
		{"dispatch.attempts_per_task", "ratio"},
		{"dispatch.steals", "count"},
	}
	for _, k := range engineKinds {
		l = append(l, metricDef{"engine.allocs_per_phase." + k, "count"})
	}
	for _, t := range tiers {
		l = append(l,
			metricDef{"serve.handler_us_p50." + t, "us"},
			metricDef{"serve.handler_us_p99." + t, "us"},
			metricDef{"serve.share." + t, "ratio"})
	}
	return l
}()

func hasMetric(list []metricDef, name string) bool {
	for _, m := range list {
		if m.name == name {
			return true
		}
	}
	return false
}

// quantile returns the nearest-rank p-quantile of xs (0 when empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opBlock is how many operations one p99 is taken over: enough that ten
// samples lie beyond it.
const opBlock = 1000

// opMetrics reports a workload's operation timings from per-operation
// latencies in milliseconds, in the order the operations ran, and rates,
// the throughput of each stretch of the run (nil: ten equal stretches of
// lat, each operations over the time they took). Untraced it sets p50_ms,
// the median latency, and ops_per_s, the median stretch rate. Traced it
// sets bench.traced_ops_per_s, the same throughput with tracing on (set
// beside ops_per_s it gives the tracing overhead), and bench.p99_ms, the
// 99th percentile of each block of opBlock operations, median over the
// blocks (one block when a run has fewer).
func opMetrics(rep *report, lat, rates []float64) {
	if rates == nil {
		n := max(1, len(lat)/10)
		for b := 0; b+n <= len(lat); b += n {
			rates = append(rates, float64(n)/(sum(lat[b:b+n])/1000))
		}
	}
	rep.note("operations timed: %d; throughput over %d stretches: %.4g", len(lat), len(rates), rates)
	if rep.tr == nil {
		rep.set("p50_ms", "ms", median(lat))
		rep.set("ops_per_s", "1/s", median(rates))
		return
	}
	blocks := max(1, len(lat)/opBlock)
	size := len(lat) / blocks
	var p99s []float64
	for b := 0; b < blocks; b++ {
		p99s = append(p99s, quantile(lat[b*size:(b+1)*size], 0.99))
	}
	rep.set("bench.traced_ops_per_s", "1/s", median(rates))
	rep.set("bench.p99_ms", "ms", median(p99s))
}

// derive makes an independent 64-bit seed for one named input from the
// workload seed (splitmix64 over the seed mixed with the label's hash).
func derive(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := seed ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gitCommit is HEAD of the checkout, or "none" when the checkout is not a
// git repository (git is not asked to look above the checkout).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceID hashes every Go source and module file of the checkout, so a
// result names the code it measured even where there is no git history.
func sourceID(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
