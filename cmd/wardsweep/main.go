// Command wardsweep executes a batch campaign — the cross product of
// topology, policy, update-period, population and seed axes declared in a
// JSON spec — on a worker pool, streams one JSONL record per run, and writes
// a per-cell summary table (stdout + CSV).
//
// With -workers given wardserve URLs instead of a pool size, the campaign is
// sharded across that fleet by consistent hashing on task fingerprint and
// the remote records merged locally — the output artifacts are byte-identical
// to a local run, including when a worker dies mid-campaign.
//
// Usage:
//
//	wardsweep -spec campaign.json -workers 8 -out results/
//	wardsweep -spec campaign.json -workers http://a:8080,http://b:8080 -out results/
//	wardsweep -spec campaign.json -v            # per-task progress logs on stderr
//	wardsweep -spec campaign.json -dry-run      # list the expanded tasks
//
// Output files (in -out, named after the campaign):
//
//	<name>.jsonl   one canonical record per task (streamed live in completion
//	               order, rewritten sorted by task ID on completion)
//	<name>.csv     the aggregated per-cell summary
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"wardrop"
	"wardrop/internal/drain"
	"wardrop/internal/obs"
)

func main() {
	// SIGINT/SIGTERM cancel the run context (the partial-result flush
	// follows); a second signal terminates the process.
	ctx, stop := drain.Context(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wardsweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wardsweep", flag.ContinueOnError)
	specPath := fs.String("spec", "", "campaign specification JSON file (required)")
	workersFlag := fs.String("workers", "", "local worker-pool size (default GOMAXPROCS), or comma-separated wardserve URLs for a distributed run")
	outDir := fs.String("out", "", "output directory for <name>.jsonl and <name>.csv (default: no files)")
	verbose := fs.Bool("v", false, "debug-level structured logs (per-task progress included)")
	logJSON := fs.Bool("logjson", false, "structured logs as JSON lines instead of text")
	dryRun := fs.Bool("dry-run", false, "expand and list tasks without running them")
	list := fs.Bool("list", false, "print the registered component catalog and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, *verbose, *logJSON)
	if *list {
		return wardrop.WriteCatalog(stdout)
	}
	if *specPath == "" {
		return fmt.Errorf("missing required -spec")
	}
	workers, workerURLs, err := parseWorkers(*workersFlag)
	if err != nil {
		return err
	}

	f, err := os.Open(*specPath)
	if err != nil {
		return err
	}
	campaign, err := wardrop.ParseCampaign(f)
	f.Close()
	if err != nil {
		return err
	}
	name := campaign.Name
	if name == "" {
		name = "campaign"
	}
	// The name becomes the output file stem; refuse anything that would
	// escape or subdivide the -out directory.
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("campaign name %q cannot be used as a file name", name)
	}

	if *dryRun {
		tasks, err := campaign.Expand()
		if err != nil {
			return err
		}
		for _, t := range tasks {
			fmt.Fprintf(stdout, "task %d: %s seed=%d\n", t.ID, t.CellKey(), t.Seed)
		}
		fmt.Fprintf(stdout, "%d tasks\n", len(tasks))
		return nil
	}

	var jf *os.File
	var results io.Writer
	jsonlPath := ""
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		jsonlPath = filepath.Join(*outDir, name+".jsonl")
		jf, err = os.Create(jsonlPath)
		if err != nil {
			return err
		}
		defer func() {
			if jf != nil {
				jf.Close()
			}
		}()
		results = jf
	}
	// Failures surface at Warn (always visible); per-task progress is Debug,
	// i.e. -v.
	progress := func(done, total int, rec wardrop.SweepRecord) {
		if rec.Error != "" {
			logger.Warn("task failed", "done", done, "total", total, "task", rec.ID,
				"topology", rec.Topology, "policy", rec.Policy, "period", rec.Period, "agents", rec.Agents,
				"err", rec.Error)
			return
		}
		logger.Debug("task done", "done", done, "total", total, "task", rec.ID,
			"topology", rec.Topology, "policy", rec.Policy, "period", rec.Period, "agents", rec.Agents,
			"wallMs", rec.WallMS)
	}

	// Every run carries an instrument registry: the pool (local) or the
	// coordinator (distributed) fills its histograms and the timing summary
	// below reads them back, replacing the old hand-rolled record scan.
	reg := wardrop.NewMetricsRegistry()

	// The JSONL stream is canonical (wall time stripped) in both modes, so a
	// local and a distributed run of the same campaign write byte-identical
	// lines; the completed file is rewritten sorted by task ID below, making
	// the whole artifact byte-comparable across runs.
	var res *wardrop.SweepResult
	if len(workerURLs) > 0 {
		dopts := wardrop.DistSweepOptions{
			Results:  results,
			Progress: progress,
			Metrics:  reg,
			// Coordinator lifecycle events are always logged — a dead node or
			// a re-homed task is operational signal, not debug chatter.
			Events: func(ev wardrop.DistSweepEvent) {
				switch ev.Kind {
				case "node-dead":
					logger.Warn("node dead", "node", ev.Node, "tasks", ev.Tasks, "err", ev.Err)
				case "retry":
					logger.Info("retry", "node", ev.Node, "attempt", ev.Attempt, "err", ev.Err)
				case "steal":
					logger.Debug("steal", "node", ev.Node, "from", ev.From)
				}
			},
		}
		res, err = wardrop.RunDistSweep(ctx, campaign, workerURLs, dopts)
	} else {
		res, err = wardrop.RunSweep(ctx, campaign, wardrop.SweepOptions{
			Workers:  workers,
			Results:  results,
			Progress: progress,
			Metrics:  reg,
		})
	}
	// SIGINT cancels the run context; the engine returns the records
	// completed so far (exactly the ones already streamed to the JSONL
	// sink), so the campaign is flushed cleanly — summary, CSV and a
	// partial-run marker — instead of dying mid-write. A cancellation that
	// lands after the last task completed is not an interruption: the
	// record set is whole, so the campaign counts as a success.
	interrupted := false
	if err != nil {
		if res == nil || !wardrop.IsInterrupt(err) {
			return err
		}
		interrupted = len(res.Records) < len(res.Tasks)
	}
	if jf != nil {
		// A close error means buffered records may not have reached disk —
		// surface it rather than silently dropping the stream.
		err := jf.Close()
		jf = nil
		if err != nil {
			return err
		}
		// Rewrite the streamed (completion-order) file as the canonical
		// ID-sorted stream: the lines are unchanged, only ordered, making
		// the artifact byte-identical across runs, worker counts and
		// local-vs-distributed execution. Partial (interrupted) record sets
		// rewrite the same way.
		if err := rewriteCanonical(jsonlPath, res.Records); err != nil {
			return err
		}
	}
	timingSummary(os.Stderr, reg)

	cells := wardrop.AggregateSweep(res.Records)
	tbl := wardrop.SweepSummaryTable(name, cells)
	fmt.Fprintln(stdout, tbl.Render())

	failed := 0
	for _, r := range res.Records {
		if r.Error != "" {
			failed++
		}
	}
	fmt.Fprintf(stdout, "%d tasks, %d failed\n", len(res.Records), failed)
	if interrupted {
		fmt.Fprintf(stdout, "interrupted: %d/%d tasks completed\n", len(res.Records), len(res.Tasks))
	}

	if *outDir != "" {
		cf, err := os.Create(filepath.Join(*outDir, name+".csv"))
		if err != nil {
			return err
		}
		if err := tbl.WriteCSV(cf); err != nil {
			cf.Close()
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
	}
	if interrupted {
		return fmt.Errorf("interrupted after %d/%d tasks (partial results flushed)", len(res.Records), len(res.Tasks))
	}
	return nil
}

// parseWorkers resolves the -workers flag: empty (defaults), a pool size, or
// a comma-separated list of worker URLs selecting the distributed path.
func parseWorkers(v string) (pool int, urls []string, err error) {
	if v == "" {
		return 0, nil, nil
	}
	if strings.Contains(v, "://") {
		for _, u := range strings.Split(v, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return 0, nil, fmt.Errorf("invalid -workers %q", v)
		}
		return 0, urls, nil
	}
	pool, err = strconv.Atoi(v)
	if err != nil || pool < 0 {
		return 0, nil, fmt.Errorf("invalid -workers %q", v)
	}
	return pool, nil, nil
}

// rewriteCanonical replaces the streamed JSONL file with the canonical
// ID-sorted stream via a same-directory temp file and rename, so a crash
// mid-rewrite never truncates the streamed records.
func rewriteCanonical(path string, records []wardrop.SweepRecord) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".rewrite-*")
	if err != nil {
		return err
	}
	if err := wardrop.EncodeSweepRecords(tmp, records); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// timingSummary reports the run's wall-time distribution on stderr, read back
// from the instrument registry the run filled: sweep_task_ms for a local pool,
// dispatch_transport_ms (per-attempt coordinator round trips) plus
// dispatch_queue_wait_ms for a distributed run. Stderr so the deterministic
// stdout summary stays byte-stable.
func timingSummary(w io.Writer, reg *wardrop.MetricsRegistry) {
	h, label := reg.FindHistogram("sweep_task_ms"), "task"
	if h == nil {
		h, label = reg.FindHistogram("dispatch_transport_ms"), "transport"
	}
	if h == nil || h.Count() == 0 {
		return
	}
	fmt.Fprintf(w, "wardsweep: %s timing %d samples: mean %.1fms p50 %.1fms p95 %.1fms max %.1fms\n",
		label, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Max())
	if qw := reg.FindHistogram("dispatch_queue_wait_ms"); qw != nil && qw.Count() > 0 {
		fmt.Fprintf(w, "wardsweep: queue wait: mean %.1fms p95 %.1fms max %.1fms\n",
			qw.Mean(), qw.Quantile(0.95), qw.Max())
	}
}
