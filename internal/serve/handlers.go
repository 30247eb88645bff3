package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"wardrop/internal/flow"
	"wardrop/internal/obs"
	"wardrop/internal/scenario"
	"wardrop/internal/sweep"
)

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps an error to a JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// parseSpec decodes the request body through parse, distinguishing an
// oversized body (413) from an invalid document (400), and answers the
// document's fingerprint in X-Fingerprint (500 if it cannot be computed).
func parseSpec[T interface{ Fingerprint() (string, error) }](w http.ResponseWriter, r *http.Request, parse func(io.Reader) (T, error)) (v T, fp string, ok bool) {
	v, err := parse(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return v, "", false
	}
	if fp, err = v.Fingerprint(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return v, "", false
	}
	w.Header().Set("X-Fingerprint", fp)
	return v, fp, true
}

// maxTraceSpans caps the per-job tracer ring a client may request; the ring
// is preallocated, so an unbounded ?trace=N would be a memory lever.
const maxTraceSpans = 1 << 16

// submitStatus maps a submission failure to its HTTP status.
func submitStatus(err error) int {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeSubmitError answers a failed submission. A full queue is a transient
// condition — the 503 carries Retry-After so well-behaved clients (the
// dispatch coordinator among them) back off instead of hammering; draining
// is terminal for this process and gets no retry hint.
func writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrQueueFull) {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, submitStatus(err), err)
}

// Health is the JSON body of GET /healthz — a readiness probe, not a
// liveness stub. It exercises the durable store tier with a write/read
// roundtrip under a reserved probe key and reports queue saturation; the
// endpoint answers 503 when the process is draining, the store probe fails,
// or the job queue is saturated, so load balancers and the dispatch
// coordinator stop routing work to a node that would only shed it.
type Health struct {
	// Status is "ok" when the node is ready and "unavailable" otherwise.
	Status string `json:"status"`
	// Draining reports a server refusing new jobs during shutdown.
	Draining bool `json:"draining"`
	// QueueDepth / QueueCapacity / QueueSaturation describe the job queue;
	// saturation 1 means every further submission is shed with 503.
	QueueDepth      int     `json:"queueDepth"`
	QueueCapacity   int     `json:"queueCapacity"`
	QueueSaturation float64 `json:"queueSaturation"`
	// Store is the durable-tier probe outcome: "ok", "disabled" (no -store
	// configured), or the probe error.
	Store string `json:"store"`
}

// Store probe outcomes for the ready states.
const (
	storeOK       = "ok"
	storeDisabled = "disabled"
)

// probeBody is the fixed document the readiness probe writes and reads back;
// probeKey is its own SHA-256, which makes it a valid store key that cannot
// collide with a real result fingerprint (those hash canonical spec
// documents, none of which is this probe body).
var (
	probeBody = []byte(`{"wardserve":"readiness probe"}` + "\n")
	probeKey  = func() string {
		sum := sha256.Sum256(probeBody)
		return hex.EncodeToString(sum[:])
	}()
)

// storeProbe exercises the durable tier with a write/read roundtrip.
func (s *Server) storeProbe() string {
	st := s.cache.store
	if st == nil {
		return storeDisabled
	}
	if err := st.Put(probeKey, probeBody); err != nil {
		return "error: " + err.Error()
	}
	got, err := st.Get(probeKey)
	if err != nil {
		return "error: " + err.Error()
	}
	if !bytes.Equal(got, probeBody) {
		return "error: probe object corrupted"
	}
	return storeOK
}

// Health assembles the readiness document; ready reports whether the node
// should receive traffic.
func (s *Server) Health() (h Health, ready bool) {
	s.mu.Lock()
	h.Draining = s.draining
	s.mu.Unlock()
	h.QueueDepth = len(s.queue)
	h.QueueCapacity = s.cfg.QueueDepth
	h.QueueSaturation = float64(h.QueueDepth) / float64(h.QueueCapacity)
	h.Store = s.storeProbe()
	ready = !h.Draining && h.QueueDepth < h.QueueCapacity &&
		(h.Store == storeOK || h.Store == storeDisabled)
	h.Status = "ok"
	if !ready {
		h.Status = "unavailable"
	}
	return h, ready
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h, ready := s.Health()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, scenario.Catalog())
}

// handleMetrics answers GET /metrics. The default body is the JSON Metrics
// document; ?format=prom renders the full instrument registry in Prometheus
// text exposition format instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		_ = s.met.reg.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// MetricsSnapshot assembles the current Metrics document.
func (s *Server) MetricsSnapshot() Metrics {
	hits, misses := s.met.cacheHits.Value(), s.met.cacheMisses.Value()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	p50, p99 := s.met.percentiles()
	st := s.cache.StoreStats()
	return Metrics{
		JobsRun:         s.met.jobsRun.Value(),
		JobsFailed:      s.met.jobsFailed.Value(),
		EngineRuns:      s.engineRuns.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheHitRate:    rate,
		CacheEntries:    s.cache.Len(),
		StoreHits:       s.met.storeHits.Value(),
		StorePuts:       s.met.storePuts.Value(),
		StoreErrors:     s.met.storeErrors.Value(),
		StoreObjects:    st.Objects,
		StoreBytes:      st.Bytes,
		QueueDepth:      len(s.queue),
		QueueCapacity:   s.cfg.QueueDepth,
		QueueSaturation: float64(len(s.queue)) / float64(s.cfg.QueueDepth),
		QueueHighWater:  int64(s.met.queueHighWater.Value()),
		StoreProbe:      s.storeProbe(),
		JobsRunning:     s.met.jobsRunning(),
		Workers:         s.cfg.Workers,
		RunLatencyMsP50: p50,
		RunLatencyMsP99: p99,
	}
}

// submission is what a POST handler hands the shared submission path: the
// job kind, the document's fingerprint, the Content-Type of a synchronous
// answer's body, and whether the job is detached from the request.
type submission struct {
	kind, fingerprint, contentType string
	async                          bool
}

// answerCached answers the submission from the cache tiers and reports
// whether it could. A synchronous hit writes the cached document; an
// asynchronous one registers a job born done and answers its resource.
func (s *Server) answerCached(w http.ResponseWriter, sub submission) bool {
	body, tier, ok := s.cacheGet(sub.kind, sub.fingerprint)
	if !ok {
		return false
	}
	if sub.async {
		j := newJob(sub.kind, sub.fingerprint, context.Background(), maxStreamBytes)
		j.complete(body, true)
		s.register(j)
		writeJSON(w, http.StatusOK, j.status())
		return true
	}
	w.Header().Set("X-Cache", tier)
	w.Header().Set("Content-Type", sub.contentType)
	_, _ = w.Write(body)
	return true
}

// schedule queues a job that runs the submission. An asynchronous job is
// detached from the request — only server shutdown cancels it — and is
// answered with its job resource. A synchronous job inherits the request
// context, so a client disconnect cancels the run between phases and frees
// the worker slot (the job is left failed for the audit trail); it is
// answered with the result document, or 422 when the run failed.
func (s *Server) schedule(w http.ResponseWriter, r *http.Request, sub submission, run func(*job, *flow.Workspace) ([]byte, error)) {
	parent := r.Context()
	if sub.async {
		parent = context.Background()
	}
	j := newJob(sub.kind, sub.fingerprint, parent, maxStreamBytes)
	j.run = run
	s.register(j)
	if err := s.submit(j); err != nil {
		j.fail(err)
		writeSubmitError(w, err)
		return
	}
	// Only scheduled work counts as a miss: a 503'd request never
	// consulted an engine, so it must not dilute the hit rate.
	s.met.cacheMisses.Add(1)
	if sub.async {
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	<-j.done
	st := j.status()
	if st.State == JobFailed {
		if r.Context().Err() != nil {
			// The client is gone; nothing can be written.
			return
		}
		writeError(w, http.StatusUnprocessableEntity, errors.New(st.Error))
		return
	}
	w.Header().Set("X-Cache", TierMiss)
	w.Header().Set("Content-Type", sub.contentType)
	_, _ = w.Write(j.resultBytes())
}

// handleScenarios answers POST /v1/scenarios. The default mode runs
// synchronously — the response body is the scenario's canonical result
// document, byte-identical to `wardsim -scenario <file> -json` on the same
// spec. `?mode=job` detaches the run from the request and answers with a
// job resource instead (stream the trajectory from /v1/jobs/{id}/stream).
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	spec, fp, ok := parseSpec(w, r, scenario.Parse)
	if !ok {
		return
	}
	// ?trace=N attaches a span tracer (ring capacity N) to the run; each
	// recorded span is streamed as a {"span":…} NDJSON line. A request
	// answered from the cache ran no engine and therefore carries no spans.
	trace := 0
	if t := r.URL.Query().Get("trace"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, errors.New("serve: trace must be a non-negative integer"))
			return
		}
		trace = min(n, maxTraceSpans)
	}
	sub := submission{kind: kindScenario, fingerprint: fp, contentType: "application/json",
		async: r.URL.Query().Get("mode") == "job"}
	if s.answerCached(w, sub) {
		return
	}
	s.schedule(w, r, sub, func(j *job, ws *flow.Workspace) ([]byte, error) {
		return s.runScenario(j, spec, trace, ws)
	})
}

// handleTasks answers POST /v1/tasks: the distributed-sweep work unit. The
// body is one self-contained task spec; the response is the task's canonical
// record line, synchronously (a task is one engine run — the job machinery
// provides queueing, panic isolation and disconnect cancellation, not
// detachment). Task-level failures come back inside the record's error field
// with status 200, exactly as a local sweep would record them, so a
// coordinator merging remote records reproduces the local artifact
// byte-for-byte even when cells fail.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	ts, fp, ok := parseSpec(w, r, sweep.ParseTaskSpec)
	if !ok {
		return
	}
	sub := submission{kind: kindTask, fingerprint: fp, contentType: "application/x-ndjson"}
	if s.answerCached(w, sub) {
		return
	}
	s.schedule(w, r, sub, func(j *job, ws *flow.Workspace) ([]byte, error) {
		return s.runTask(j, ts, ws)
	})
}

// handleCampaigns answers POST /v1/campaigns: always asynchronous — the
// response is a job resource whose stream delivers one NDJSON record per
// completed task followed by the aggregated summary. A campaign whose
// fingerprint is cached completes immediately with the memoized summary.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	c, fp, ok := parseSpec(w, r, sweep.ParseCampaign)
	if !ok {
		return
	}
	sub := submission{kind: kindCampaign, fingerprint: fp, async: true}
	if s.answerCached(w, sub) {
		return
	}
	// Campaign workers own their workspaces inside sweep.Run.
	s.schedule(w, r, sub, func(j *job, _ *flow.Workspace) ([]byte, error) {
		return s.runCampaign(j, c)
	})
}

// handleJobs lists every retained job, oldest first.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobStream replays the job's NDJSON lines and follows live output
// until the job reaches a terminal state or the client disconnects.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Fingerprint", j.fingerprint)
	flusher, _ := w.(http.Flusher)
	for from := 0; ; {
		lines, next, notify, truncated, terminal := j.follow(from)
		from = next
		if truncated {
			if _, err := w.Write(truncatedLine); err != nil {
				return
			}
		}
		for _, ln := range lines {
			if _, err := w.Write(ln); err != nil {
				return
			}
		}
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}
