// Command e2ebench is the repository's end-to-end benchmark. One run drives
// one workload through the library's public entry points from a seed,
// checks every output against the repository's own oracles, and prints the
// metrics as the last line of standard output:
//
//	e2ebench -workload sim-large -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (see endToEnd); with
// -trace 1 a separate, traced run of the same workload records spans around
// every layer call and reports the per-layer metrics (see perLayer). The
// workloads, the metrics and the reasons for them are described in
// README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// config is one run's settings, all taken from the command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir is the run's working directory (stores), inside the checkout
	// the benchmark runs from.
	dir string
	// tiny shrinks every input to smoke-test size.
	tiny bool
}

// window is the measured time of a run.
func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(config, *report) error{
	"sim-large":   runSimLarge,
	"sim-dense":   runSimDense,
	"sweep-fleet": runSweepFleet,
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: sim-large, sim-dense or sweep-fleet")
	seed := fs.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	root := fs.String("root", ".", "checkout root; working files go under <root>/.bench_build")
	tiny := fs.Bool("tiny", false, "smoke-test sizes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny}
	work := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-"+cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	fmt.Fprintf(stdout, "# e2ebench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), gitCommit(*root), sourceID(*root))
	rep := newReport(cfg.trace)
	if err := drive(cfg, rep); err != nil {
		return err
	}
	if cfg.trace {
		if err := rep.finishTrace(filepath.Join(work, "traces"), cfg); err != nil {
			return err
		}
	} else if err := rep.rss.finish(rep); err != nil {
		return err
	}
	return rep.write(stdout, cfg.trace)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome: operations attempted and failed,
// metrics, and (traced runs) spans.
type report struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
	metrics   map[string]metric
	notes     []string
	tr        *tracer
	rss       *rssStretches // untraced runs only
}

func newReport(traced bool) *report {
	r := &report{metrics: make(map[string]metric)}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// op counts one operation; a non-nil err (a failure, a refusal or a wrong
// output) counts it as failed.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

func (r *report) set(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note adds a "# ..." line to the output, for sample counts and run facts.
func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, then the result object as the last line. The
// metric set must be exactly the mode's list.
func (r *report) write(w io.Writer, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
		if r.attempted > 0 {
			r.set("fail_ratio", "ratio", float64(r.failed)/float64(r.attempted))
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: %s\n", e)
	}
	var missing []string
	for _, m := range want {
		got, ok := r.metrics[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		if got.Unit != m.unit {
			return fmt.Errorf("metric %s: unit %q, want %q", m.name, got.Unit, m.unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if len(r.metrics) != len(want) {
		var extra []string
		for name := range r.metrics {
			if !hasMetric(want, name) {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics not in the list: %s", strings.Join(extra, ", "))
	}
	if r.attempted < 1 {
		return errors.New("no operation attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// finishTrace writes the spans as JSONL and derives the span-based
// per-layer metrics from their self times.
func (r *report) finishTrace(dir string, cfg config) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := r.tr.snapshot()
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.note("trace: %d spans written to %s", len(spans), path)
	return spanMetrics(spans, r)
}

// rssStretches measures peak_rss_mb, the largest of three: the set-up's
// peak resident memory, the median of the peaks of ten equal stretches of
// the measured window, and the resident memory when the window ends. Each
// stretch's peak is VmHWM, reset at the stretch's start through
// /proc/self/clear_refs, so a brief spike moves one stretch's peak, not
// the run's. The set-up's peak shows memory that work
// moved into set-up needs; the resident memory at the end shows caches
// that fill during the window.
type rssStretches struct {
	setup float64
	step  time.Duration
	next  time.Time
	peaks []float64
	err   error
}

// measureRSS starts the stretches when the measured window starts;
// untraced runs call it once, between set-up and the first operation.
func (r *report) measureRSS(window time.Duration) {
	if r.tr != nil {
		return
	}
	s := &rssStretches{setup: statusMB("VmHWM"), step: window / 10}
	s.next = time.Now().Add(s.step)
	s.err = resetPeakRSS()
	r.rss = s
}

// tick ends the current stretch once its time is up; the measuring loops
// call it after every operation.
func (s *rssStretches) tick() {
	if s == nil || time.Now().Before(s.next) {
		return
	}
	s.mark()
	s.next = time.Now().Add(s.step)
}

func (s *rssStretches) mark() {
	s.peaks = append(s.peaks, statusMB("VmHWM"))
	if err := resetPeakRSS(); err != nil && s.err == nil {
		s.err = err
	}
}

// finish ends the last stretch and sets peak_rss_mb.
func (s *rssStretches) finish(rep *report) error {
	if s == nil {
		return errors.New("peak_rss_mb: the measured window was never started")
	}
	final := statusMB("VmRSS")
	s.mark()
	if s.err != nil {
		return fmt.Errorf("peak_rss_mb: %w", s.err)
	}
	rep.note("RSS, MB: set-up peak %.4g; stretch peaks %.4g; at the end %.4g", s.setup, s.peaks, final)
	rep.set("peak_rss_mb", "MB", max(s.setup, median(s.peaks), final))
	return nil
}

// resetPeakRSS sets the process's VmHWM to its current resident size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// statusMB reads a memory field of the process's status, VmHWM (peak
// resident size) or VmRSS (resident size), in MB.
func statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
