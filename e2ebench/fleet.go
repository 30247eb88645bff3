package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"wardrop/internal/dispatch"
	"wardrop/internal/obs"
	"wardrop/internal/serve"
	"wardrop/internal/store"
	"wardrop/internal/sweep"
)

// fleetNodes is the in-process fleet size; each node takes one task at a
// time, so the coordinator holds at most nproc connections.
const fleetNodes = 2

// campaign makes iteration iter's campaign: four small topologies, two
// policies, three periods and seeds replicate seeds of tiny fluid tasks.
// The base seed changes with iter, so every iteration's tasks are new to
// the fleet's caches while their work stays the same.
func campaign(seed uint64, iter, seeds int) (*sweep.Campaign, error) {
	return sweep.ParseCampaign(strings.NewReader(fmt.Sprintf(
		`{"name":"fleet","topologies":[{"family":"pigou"},{"family":"braess"},{"family":"links","size":3},{"family":"links","size":5}],`+
			`"policies":[{"kind":"replicator"},{"kind":"uniform"}],"updatePeriods":["safe",0.05,0.1],`+
			`"seeds":%d,"baseSeed":%d,"maxPhases":15}`, seeds, derive(seed, fmt.Sprint("fleet/", iter)))))
}

// fleet is two serve.Server nodes sharing one store directory, and the
// coordinator's HTTP client.
type fleet struct {
	rigs   []*rig
	urls   []string
	client *http.Client
	reg    *obs.Registry

	mu      sync.Mutex
	rtts    []float64 // round trips of the current pass, ms
	retries int
	deaths  int
	steals  int
}

func startFleet(dir string, tr *tracer) (*fleet, error) {
	f := &fleet{reg: obs.NewRegistry()}
	for i := 0; i < fleetNodes; i++ {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		srv := serve.New(serve.Config{CacheEntries: 4096, Store: st})
		var h http.Handler = srv
		if tr != nil {
			h = traceHandler(tr, "dispatch.handler", srv)
		}
		r, err := startRig(srv, h)
		if err != nil {
			return nil, errors.Join(err, srv.Close(context.Background()), f.close())
		}
		f.rigs, f.urls = append(f.rigs, r), append(f.urls, r.url)
	}
	f.client = newClient(tr, "dispatch.rtt", 1, func(d time.Duration) {
		f.mu.Lock()
		f.rtts = append(f.rtts, ms(d))
		f.mu.Unlock()
	})
	return f, nil
}

func (f *fleet) close() error {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	var errs []error
	for _, r := range f.rigs {
		errs = append(errs, r.close())
	}
	return errors.Join(errs...)
}

func (f *fleet) event(ev dispatch.Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch ev.Kind {
	case dispatch.EventRetry:
		f.retries++
	case dispatch.EventNodeDead:
		f.deaths++
	case dispatch.EventSteal:
		f.steals++
	}
}

func (f *fleet) engineRuns() []int64 {
	runs := make([]int64, len(f.rigs))
	for i, r := range f.rigs {
		runs[i] = r.srv.EngineRuns()
	}
	return runs
}

// remote runs the campaign on the fleet and returns its records, the
// pass's round trips and its duration.
func (f *fleet) remote(c *sweep.Campaign) (*sweep.RunResult, []float64, time.Duration, error) {
	f.mu.Lock()
	f.rtts = nil
	f.mu.Unlock()
	t0 := time.Now()
	res, err := dispatch.Run(context.Background(), c, f.urls, dispatch.Options{
		Client: f.client, Inflight: 1, Events: f.event, Metrics: f.reg,
	})
	d := time.Since(t0)
	f.mu.Lock()
	defer f.mu.Unlock()
	return res, f.rtts, d, err
}

// passStats accumulates one pass kind's work.
type passStats struct {
	tasks int
	rates []float64
}

func (p *passStats) add(tasks int, d time.Duration) {
	p.tasks += tasks
	p.rates = append(p.rates, float64(tasks)/d.Seconds())
}

// fleetPasses measures the local, cold and warm passes. lat holds the
// warm pass's round trips and rates each iteration's warm tasks per second,
// so both end-to-end timings describe the same operation. The local pass is
// reported as local_tasks_per_s in the traced run. The cold pass stays out
// of the end-to-end timings because every cold task writes its result
// through to the store with an fsync, so its speed is the disk's (README.md
// has the numbers); it is checked like the others and reported as
// cold_tasks_per_s in the traced run.
type fleetPasses struct {
	rep               *report
	fleet             *fleet
	seed              uint64
	seeds             int
	lat               []float64
	rates             []float64 // warm tasks per second, per iteration
	local, cold, warm passStats
	wallMS            []float64
}

// iteration runs campaign iter three ways: locally (sweep.Run), on the
// fleet while every task is new (cold), and again (warm). The cold and
// warm canonical records must equal the local ones line for line, and the
// warm pass must not run an engine on either node.
func (s *fleetPasses) iteration(iter int) error {
	c, err := campaign(s.seed, iter, s.seeds)
	if err != nil {
		return err
	}
	t0 := time.Now()
	local, err := sweep.Run(context.Background(), c, sweep.Options{})
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("local sweep: %w", err)
	}
	s.local.add(len(local.Records), d)
	want, err := recordLines(local.Records)
	if err != nil {
		return err
	}
	for _, rec := range local.Records {
		var err error
		if rec.Error != "" {
			err = fmt.Errorf("local task %d: %s", rec.ID, rec.Error)
		}
		s.rep.op(err)
		s.wallMS = append(s.wallMS, rec.WallMS)
	}

	cold, _, d, err := s.fleet.remote(c)
	s.cold.add(len(want), d)
	s.compare("cold", cold, err, want, nil)

	before := s.fleet.engineRuns()
	warm, rtts, d, err := s.fleet.remote(c)
	s.warm.add(len(want), d)
	after := s.fleet.engineRuns()
	var ranEngine error
	for i := range before {
		if after[i] != before[i] {
			ranEngine = fmt.Errorf("warm pass ran %d engines on node %d", after[i]-before[i], i)
		}
	}
	s.compare("warm", warm, err, want, ranEngine)
	s.lat = append(s.lat, rtts...)
	s.rates = append(s.rates, float64(len(want))/d.Seconds())
	return nil
}

// compare counts one operation per task: its canonical record must equal
// the local pass's line.
func (s *fleetPasses) compare(pass string, res *sweep.RunResult, runErr error, want [][]byte, extra error) {
	var got [][]byte
	err := runErr
	if err == nil {
		got, err = recordLines(res.Records)
	}
	for i := range want {
		e := err
		if e == nil && (i >= len(got) || !bytes.Equal(got[i], want[i])) {
			e = fmt.Errorf("%s pass: record %d differs from the local pass", pass, i)
		}
		if e == nil {
			e = extra
		}
		s.rep.op(e)
	}
}

// recordLines encodes records canonically and splits them into lines.
func recordLines(recs []sweep.Record) ([][]byte, error) {
	var buf bytes.Buffer
	if err := sweep.EncodeRecords(&buf, recs); err != nil {
		return nil, err
	}
	return bytes.SplitAfter(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")), nil
}

// runSweepFleet: one campaign of a few hundred tiny fluid tasks per
// iteration, run locally, on a cold two-node fleet sharing one store, and
// warm.
func runSweepFleet(cfg config, rep *report) error {
	seeds := 12
	if cfg.tiny {
		seeds = 1
	}
	if err := fleetRun(cfg, rep, seeds, cfg.window(), true); err != nil || rep.tr == nil {
		return err
	}
	in := simInputs{top: sweep.Topology{Family: "links", Size: 5}, policy: sweep.PolicySpec{Kind: "replicator"},
		start: "skewed", phases: 15, countN: 100_000, agentsN: 2000}
	if err := simProbe(rep, in); err != nil {
		return err
	}
	return serveProbe(cfg, rep)
}

// fleetProbe measures the sweep and dispatch layers of a traced run whose
// own workload does not sweep: a few iterations of a small campaign.
func fleetProbe(cfg config, rep *report) error {
	window := time.Second
	if cfg.tiny {
		window = 200 * time.Millisecond
	}
	return fleetRun(cfg, rep, 2, window, false)
}

func fleetRun(cfg config, rep *report, seeds int, window time.Duration, own bool) error {
	s := &fleetPasses{rep: rep, seed: derive(cfg.seed, "sweep-fleet"), seeds: seeds}
	dir := filepath.Join(cfg.dir, "fleet-store")
	start := func() (err error) {
		s.fleet, err = startFleet(dir, rep.tr)
		return err
	}
	// A first fleet runs the warm-up campaign (iteration -1) and leaves
	// its records in the store, untimed. Set-up then starts a fresh fleet
	// on that store and runs the same campaign, every remote task a store
	// or cache hit: the connections, instance caches and code paths warm
	// up without an fsync, so setup_s does not measure the disk.
	if err := start(); err != nil {
		return err
	}
	if err := s.iteration(-1); err != nil {
		return errors.Join(err, s.fleet.close())
	}
	setup := func() error {
		if err := s.fleet.close(); err != nil {
			return err
		}
		if err := start(); err != nil {
			return err
		}
		return s.iteration(-1)
	}
	var err error
	if own {
		err = timeSetup(rep, 7, setup)
	} else {
		err = setup()
	}
	if err != nil {
		if s.fleet != nil {
			err = errors.Join(err, s.fleet.close())
		}
		return err
	}
	s.lat, s.wallMS, s.rates = nil, nil, nil
	s.local, s.cold, s.warm = passStats{}, passStats{}, passStats{}
	s.fleet.mu.Lock()
	s.fleet.retries, s.fleet.deaths, s.fleet.steals = 0, 0, 0
	s.fleet.mu.Unlock()
	rep.measureRSS(window)
	end := time.Now().Add(window)
	for iter := 0; iter == 0 || time.Now().Before(end); iter++ {
		if err := s.iteration(iter); err != nil {
			return errors.Join(err, s.fleet.close())
		}
		rep.rss.tick()
	}
	rep.note("sweep-fleet: %d tasks per pass, %d iterations; median tasks/s local %.0f, cold %.0f, warm %.0f",
		s.local.tasks/len(s.local.rates), len(s.local.rates), median(s.local.rates), median(s.cold.rates), median(s.warm.rates))
	if own {
		opMetrics(rep, s.lat, s.rates)
	}
	if rep.tr == nil {
		return s.fleet.close()
	}
	rep.set("local_tasks_per_s", "1/s", median(s.local.rates))
	rep.set("cold_tasks_per_s", "1/s", median(s.cold.rates))
	rep.set("warm_tasks_per_s", "1/s", median(s.warm.rates))
	rep.set("sweep.task_ms_p50", "ms", median(s.wallMS))
	rep.set("dispatch.queue_wait_ms_p50", "ms", s.fleet.reg.FindHistogram("dispatch_queue_wait_ms").Quantile(0.5))
	f := s.fleet
	f.mu.Lock()
	remoteTasks := s.cold.tasks + s.warm.tasks
	rep.set("dispatch.attempts_per_task", "ratio", float64(remoteTasks+f.retries+f.deaths)/float64(remoteTasks))
	rep.set("dispatch.steals", "count", float64(f.steals))
	f.mu.Unlock()
	return f.close()
}
