// Package serve turns the simulation library into a long-lived HTTP/JSON
// service: the bulletin-board shape of the paper — many clients reading a
// shared store refreshed by expensive recomputation — applied to the
// simulations themselves. Scenario and campaign specs POSTed to the service
// are fingerprinted (canonical-JSON SHA-256), answered from an LRU result
// cache when an identical spec already ran, and otherwise scheduled on a
// bounded job queue drained by a worker pool (one reusable evaluation
// workspace per worker, per-job panic isolation, client-disconnect →
// context cancellation). Small runs answer synchronously; campaigns become
// job resources with NDJSON streaming. The service exposes /healthz, the
// component catalog, and a /metrics snapshot, and drains gracefully on
// shutdown.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wardrop/internal/dynamics"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/obs"
	"wardrop/internal/scenario"
	"wardrop/internal/store"
	"wardrop/internal/sweep"
	"wardrop/internal/timeline"
)

// Sentinel errors surfaced as HTTP statuses.
var (
	// ErrQueueFull indicates a full job queue (503, retryable).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining indicates a server refusing new jobs during shutdown.
	ErrDraining = errors.New("serve: draining")
)

const (
	// maxBodyBytes bounds request documents; a spec larger than this is not
	// a simulation request, it is an attack.
	maxBodyBytes = 8 << 20
	// maxJobs bounds the finished-job history retained for /v1/jobs; the
	// oldest terminal jobs are evicted first.
	maxJobs = 1024
	// maxStreamBytes bounds each job's NDJSON replay buffer: a huge
	// campaign keeps streaming live, but late attachers replay only the
	// newest lines behind a {"truncated":true} marker, so terminal jobs
	// cannot pin unbounded memory.
	maxStreamBytes = 4 << 20
)

// Config parameterises a Server. The zero value is usable: every field has
// a serving-appropriate default.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS). Each worker
	// owns one evaluation workspace reused across every job it runs.
	Workers int
	// QueueDepth bounds the job queue (default 64); submissions beyond it
	// are rejected with 503 rather than buffered without limit.
	QueueDepth int
	// CacheEntries is the LRU result-cache capacity (0 means the default
	// 256; negative disables caching).
	CacheEntries int
	// CampaignWorkers is the sweep pool width used inside one campaign job
	// (default 1, keeping the server's worker pool the only concurrency
	// authority; raise it on dedicated campaign servers).
	CampaignWorkers int
	// Metrics, when non-nil, is the obs.Registry the server registers its
	// instruments in (default: a private registry). Share one registry to
	// expose several components — the server, a dispatch coordinator, a
	// sweep pool — through one /metrics endpoint.
	Metrics *obs.Registry
	// Store, when non-nil, is the durable second cache tier: every cached
	// result document is written through to it, and LRU misses consult it
	// before scheduling work, so results survive restarts (and can be shared
	// between servers pointing at one directory). See internal/store.
	Store *store.Store

	// jobStarted, when non-nil, is called by the worker that starts a job,
	// once the job counts as running and before it executes. Tests hold a
	// job in flight with it.
	jobStarted func(*job)
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CampaignWorkers <= 0 {
		c.CampaignWorkers = 1
	}
	return c
}

// Server is the simulation service: an http.Handler plus the worker pool
// behind it. Create with New, serve with any http.Server, stop with Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *tieredCache
	met   *metrics

	// instCache memoizes built instances and their Frank–Wolfe reference
	// potentials across every /v1/tasks job for the server's lifetime: a
	// campaign sharded across a fleet scatters one topology cell's seeds
	// over many task submissions, and each node should pay the cell's
	// construction and Φ* solve once, not once per task.
	instCache *sweep.InstanceCache

	engineRuns atomic.Int64

	mu       sync.Mutex
	queue    chan *job
	jobs     map[string]*job
	jobOrder []string
	nextID   int
	draining bool
	wg       sync.WaitGroup
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		cache:     newTieredCache(cfg.CacheEntries, cfg.Store),
		met:       newMetrics(cfg.Metrics),
		instCache: sweep.NewInstanceCache(),
		queue:     make(chan *job, cfg.QueueDepth),
		jobs:      make(map[string]*job),
	}
	// Live-state instruments read their owners at exposition time; the
	// cumulative engine-run counter stays on the server's atomic (EngineRuns
	// is pinned by the cache tests) and is bridged into the registry.
	reg := s.met.reg
	reg.CounterFunc("serve_engine_runs_total", "simulation runs executed on behalf of jobs",
		func() float64 { return float64(s.engineRuns.Load()) })
	reg.GaugeFunc("serve_queue_depth", "jobs waiting for a worker",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("serve_queue_capacity", "job queue bound",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("serve_cache_entries", "in-memory result-cache population",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("serve_workers", "worker pool size",
		func() float64 { return float64(s.cfg.Workers) })
	s.routes()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	s.mux.HandleFunc("POST /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCampaigns)
	s.mux.HandleFunc("POST /v1/tasks", s.handleTasks)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// EngineRuns reports the number of simulation runs executed so far — the
// counter the cache tests pin: a repeated identical request must not move
// it.
func (s *Server) EngineRuns() int64 { return s.engineRuns.Load() }

// Registry returns the server's instrument registry — the source of both
// /metrics expositions and the place to register further instruments that
// should appear alongside the server's own.
func (s *Server) Registry() *obs.Registry { return s.met.reg }

// Close drains the server: no new jobs are accepted, queued and running
// jobs finish, workers exit. If ctx expires first, every live job is
// cancelled (engines abort between phases) and Close returns ctx.Err()
// after the now-prompt drain.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelJobs()
		<-done
		return ctx.Err()
	}
}

// cancelJobs cancels every registered job's context.
func (s *Server) cancelJobs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.cancel()
	}
}

// register assigns the job an ID and retains it for /v1/jobs, evicting the
// oldest terminal jobs beyond the history cap.
func (s *Server) register(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j.id = fmt.Sprintf("j%08d", s.nextID)
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	if len(s.jobOrder) <= maxJobs {
		return
	}
	kept := s.jobOrder[:0]
	excess := len(s.jobOrder) - maxJobs
	for _, id := range s.jobOrder {
		if excess > 0 {
			if old := s.jobs[id]; old != nil {
				old.mu.Lock()
				terminal := old.terminalLocked()
				old.mu.Unlock()
				if terminal {
					delete(s.jobs, id)
					excess--
					continue
				}
			}
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// submit enqueues the job, refusing when draining or full.
func (s *Server) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	// Stamped before the send: a worker may pick the job up the instant it
	// lands on the queue.
	j.enqueued = time.Now()
	select {
	case s.queue <- j:
		s.met.noteQueueDepth(int64(len(s.queue)))
		return nil
	default:
		return ErrQueueFull
	}
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// worker drains the job queue; one evaluation workspace is reused across
// every job this worker runs.
func (s *Server) worker() {
	defer s.wg.Done()
	ws := flow.NewWorkspace()
	for j := range s.queue {
		s.runJob(j, ws)
	}
}

// runJob executes one job with panic isolation: a poisoned spec fails its
// own job, never the worker or the process. A finished document is written
// through the cache tiers, and the job counted and finished in the metrics,
// before complete or fail releases its waiter: an immediate repeat is a hit,
// and a client holding its response never scrapes its job as still running.
func (s *Server) runJob(j *job, ws *flow.Workspace) {
	start := time.Now()
	if !j.enqueued.IsZero() {
		s.met.queueWaitMs.Observe(ms(start.Sub(j.enqueued)))
	}
	s.met.running.Add(1)
	j.setRunning()
	if s.cfg.jobStarted != nil {
		s.cfg.jobStarted(j)
	}
	body, err := s.execute(j, ws)
	if err != nil {
		s.met.jobsFailed.Add(1)
	} else {
		s.cacheAdd(j.kind, j.fingerprint, body)
	}
	s.met.jobsRun.Add(1)
	s.met.observe(time.Since(start))
	s.met.running.Add(-1)
	if err != nil {
		j.fail(err)
	} else {
		j.complete(body, false)
	}
	j.cancel()
}

// execute runs the job and returns its result document, turning a panic
// into the job's error.
func (s *Server) execute(j *job, ws *flow.Workspace) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return j.run(j, ws)
}

// runScenario executes a scenario job through the shared Spec.Run path —
// the same execution `wardsim -scenario` uses, so the encoded result
// document is byte-identical — streaming trajectory samples and replayed
// timeline events as they happen, then returning the document.
func (s *Server) runScenario(j *job, spec *scenario.Spec, trace int, ws *flow.Workspace) ([]byte, error) {
	opts := []engine.RunOption{engine.WithWorkspace(ws)}
	if every := spec.RecordEvery; every > 0 {
		opts = append(opts, engine.WithObserver(dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
			if info.Index%every == 0 {
				j.appendLine(streamLine{Sample: &scenario.TrajectorySample{
					Time:      info.Time,
					Potential: info.Potential,
					Flow:      append([]float64(nil), info.Flow...),
				}})
			}
			return false
		})))
	}
	// ?trace=N attaches a Tracer and streams each recorded span as a
	// {"span":…} line — the per-phase cost and convergence residual of the
	// run, live over the job's NDJSON stream.
	var tracer *obs.Tracer
	if trace > 0 {
		tracer = obs.NewTracer(trace)
		tracer.OnSpan(func(sp obs.Span) {
			j.appendLine(streamLine{Span: &sp})
		})
		opts = append(opts, engine.WithObserver(tracer))
	}
	s.engineRuns.Add(1)
	res, events, err := spec.Run(j.ctx, func(ev timeline.AppliedEvent) {
		if tracer != nil {
			tracer.MarkEvent(ev.Action, ev.Time)
		}
		j.appendLine(streamLine{Event: &ev})
	}, opts...)
	if err != nil {
		return nil, err
	}
	doc, err := scenario.NewRunResult(spec, res, events)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// cacheAdd writes a finished result document through both cache tiers,
// counting durable-tier activity; a store write failure is an operational
// metric, never a request failure.
func (s *Server) cacheAdd(kind, fp string, body []byte) {
	if err := s.cache.Add(kind, fp, body); err != nil {
		s.met.storeErrors.Add(1)
		return
	}
	if s.cfg.Store != nil {
		s.met.storePuts.Add(1)
	}
}

// cacheGet looks a fingerprint up through the cache tiers, maintaining the
// hit/miss counters and the lookup-latency histogram. The returned tier is
// the X-Cache value for a hit.
func (s *Server) cacheGet(kind, fp string) (body []byte, tier string, ok bool) {
	lookupStart := time.Now()
	body, tier, err := s.cache.Get(kind, fp)
	s.met.cacheLookupMs.Observe(ms(time.Since(lookupStart)))
	if err != nil {
		s.met.storeErrors.Add(1)
	}
	if tier == TierMiss {
		// The miss counter moves only when work is actually scheduled;
		// callers add it after a successful submit.
		return nil, tier, false
	}
	s.met.cacheHits.Add(1)
	if tier == TierHitStore {
		s.met.storeHits.Add(1)
	}
	return body, tier, true
}

// CampaignResult is the final result document of a campaign job: identity,
// counts and the per-cell aggregation (the full per-task records were
// already streamed as they completed).
type CampaignResult struct {
	Name        string       `json:"name,omitempty"`
	Fingerprint string       `json:"fingerprint"`
	Tasks       int          `json:"tasks"`
	Records     int          `json:"records"`
	Failed      int          `json:"failed"`
	Cells       []sweep.Cell `json:"cells"`
}

// runCampaign executes a campaign job, streaming one record line per
// completed task and returning the aggregated summary document.
func (s *Server) runCampaign(j *job, c *sweep.Campaign) ([]byte, error) {
	res, err := sweep.Run(j.ctx, c, sweep.Options{
		Workers: s.cfg.CampaignWorkers,
		Progress: func(done, total int, rec sweep.Record) {
			j.appendLine(streamLine{Record: &rec})
		},
	})
	if err != nil {
		return nil, err
	}
	s.engineRuns.Add(int64(len(res.Records)))
	failed := 0
	for _, r := range res.Records {
		if r.Error != "" {
			failed++
		}
	}
	doc := CampaignResult{
		Name:        c.Name,
		Fingerprint: j.fingerprint,
		Tasks:       len(res.Tasks),
		Records:     len(res.Records),
		Failed:      failed,
		Cells:       sweep.Aggregate(res.Records),
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// runTask executes one distributed-sweep task job. Task-level failures (a
// diverging policy, an unbuildable cell) come back inside the record's error
// field — exactly as a local sweep.Run records them — so the job itself fails
// only when cancelled before producing a record. The memoized document is the
// canonical record line: wall time is the submitter's measurement to take,
// and a replayed cache hit carrying a stale wall time would poison it.
func (s *Server) runTask(j *job, ts *sweep.TaskSpec, ws *flow.Workspace) ([]byte, error) {
	rec, aborted := sweep.RunTaskSpec(j.ctx, ts, s.instCache, ws)
	if aborted {
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	s.engineRuns.Add(1)
	body, err := json.Marshal(sweep.CanonicalRecord(rec))
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
