package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wardrop/internal/scenario"
)

// Quick, deterministic scenario documents for the tests.
const (
	pigouQuickDoc = `{"name":"pigou-quick","topology":{"family":"pigou"},"policy":{"kind":"replicator"},"updatePeriod":0.05,"maxPhases":40}`
	pigouTrajDoc  = `{"name":"pigou-traj","topology":{"family":"pigou"},"policy":{"kind":"replicator"},"updatePeriod":0.05,"maxPhases":40,"recordEvery":10}`
	// slowDoc runs ~1e8 cheap phases: effectively forever, but it honours
	// cancellation between phases.
	slowDoc = `{"name":"slow","topology":{"family":"pigou"},"policy":{"kind":"replicator"},"updatePeriod":0.01,"horizon":1000000}`

	campaignDoc = `{"name":"mini","topologies":[{"family":"pigou"},{"family":"braess"}],"policies":[{"kind":"replicator"}],"updatePeriods":[0.05],"maxPhases":30,"delta":0.3,"eps":0.15}`

	// countDoc runs half a million agents through the mean-field count
	// engine — a population the per-agent engine would also hold, but here
	// it is cheap enough for a serving test.
	countDoc = `{"name":"pigou-count","topology":{"family":"pigou"},"policy":{"kind":"uniform"},"updatePeriod":0.25,"engine":{"kind":"count","n":500000,"seed":13},"maxPhases":30,"recordEvery":5}`
)

// newTestServer starts a Server on an httptest listener and tears both down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		// A short deadline: tests may leave deliberately slow jobs running,
		// and Close cancels them once it expires.
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// referenceResult runs the scenario through the library directly — the
// exact pipeline `wardsim -scenario -json` uses — and returns the encoded
// result document.
func referenceResult(t *testing.T, doc string) []byte {
	t.Helper()
	spec, err := scenario.Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, events, err := spec.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := scenario.NewRunResult(spec, res, events)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScenarioSyncByteIdentityAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	want := referenceResult(t, pigouQuickDoc)

	resp, body := postJSON(t, ts.URL+"/v1/scenarios", pigouQuickDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served result differs from the library pipeline:\n got: %s\nwant: %s", body, want)
	}
	if n := s.EngineRuns(); n != 1 {
		t.Fatalf("engine runs after first request = %d, want 1", n)
	}

	// The identical spec with reordered fields and different whitespace is
	// the same fingerprint: a cache hit that never touches an engine.
	reordered := "{\n \"maxPhases\": 40, \"updatePeriod\": 0.05,\n \"policy\": {\"kind\": \"replicator\"}, \"topology\": {\"family\": \"pigou\"}, \"name\": \"pigou-quick\"}"
	resp, body = postJSON(t, ts.URL+"/v1/scenarios", reordered)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("cached body differs from the first response")
	}
	if n := s.EngineRuns(); n != 1 {
		t.Fatalf("engine runs after cached repeat = %d, want 1 (cache must not touch an engine)", n)
	}

	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("cache counters = %d hits / %d misses, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.CacheHitRate != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", m.CacheHitRate)
	}
	if m.JobsRun != 1 || m.RunLatencyMsP50 <= 0 || m.RunLatencyMsP99 < m.RunLatencyMsP50 {
		t.Fatalf("unexpected job metrics: %+v", m)
	}
}

// A count-engine spec is a first-class citizen of the serving layer: the
// registry-built engine, the fingerprint and the result cache all apply with
// no count-specific code anywhere in serve.
func TestScenarioCountEngineByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	want := referenceResult(t, countDoc)

	resp, body := postJSON(t, ts.URL+"/v1/scenarios", countDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served count result differs from the library pipeline:\n got: %s\nwant: %s", body, want)
	}
	// The seeded count engine is deterministic, so the repeat is a pure
	// cache hit with the identical document.
	resp, body = postJSON(t, ts.URL+"/v1/scenarios", countDoc)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("cached count body differs from the first response")
	}
	if n := s.EngineRuns(); n != 1 {
		t.Fatalf("engine runs = %d, want 1", n)
	}
	// A population beyond the per-agent cap surfaces the count hint as a
	// spec error, not an engine crash.
	resp, body = postJSON(t, ts.URL+"/v1/scenarios",
		`{"topology":{"family":"pigou"},"policy":{"kind":"uniform"},"updatePeriod":0.25,"engine":{"kind":"agents","n":16777217},"maxPhases":5}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "count") {
		t.Fatalf("over-cap agents spec: status %d body %s", resp.StatusCode, body)
	}
}

func TestScenarioBadSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, bad := range []string{
		"{not json",
		`{"horizon":10}`, // no instance/topology
		`{"topology":{"family":"nope"},"policy":{"kind":"replicator"},"updatePeriod":0.05,"horizon":1}`,
	} {
		resp, body := postJSON(t, ts.URL+"/v1/scenarios", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d (%s), want 400", bad, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("POST %q: error body %q lacks an error field", bad, body)
		}
	}
}

// holdFirstJob returns a Config.jobStarted hook that holds the first job a
// worker starts until that job's context ends, and a channel closed once
// the job is held.
func holdFirstJob() (func(*job), <-chan struct{}) {
	held := make(chan struct{})
	var once sync.Once
	return func(j *job) {
		once.Do(func() {
			close(held)
			<-j.ctx.Done()
		})
	}, held
}

func TestClientDisconnectFreesWorkerAndFailsJob(t *testing.T) {
	hold, held := holdFirstJob()
	_, ts := newTestServer(t, Config{Workers: 1, jobStarted: hold})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/scenarios", strings.NewReader(slowDoc))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	// Wait for the job to occupy the single worker, then disconnect.
	<-held
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("expected the aborted request to error")
	}

	// The freed worker slot must be able to run the next request.
	resp, body := postJSON(t, ts.URL+"/v1/scenarios", pigouQuickDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect request: status %d (%s)", resp.StatusCode, body)
	}

	// The aborted job is retained in failed state.
	var jobs []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &jobs)
	if len(jobs) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(jobs))
	}
	if jobs[0].State != JobFailed {
		t.Fatalf("aborted job state = %s, want %s", jobs[0].State, JobFailed)
	}
	if jobs[1].State != JobDone {
		t.Fatalf("follow-up job state = %s, want %s", jobs[1].State, JobDone)
	}
}

func TestAsyncScenarioJobStreamsTrajectory(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/scenarios?mode=job", pigouTrajDoc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d (%s), want 202", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Stream == "" {
		t.Fatalf("job resource incomplete: %+v", st)
	}

	sresp, err := http.Get(ts.URL + st.Stream)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var samples int
	var sawResult bool
	scanner := bufio.NewScanner(sresp.Body)
	for scanner.Scan() {
		var line struct {
			Sample *scenario.TrajectorySample `json:"sample"`
			Result *scenario.RunResult        `json:"result"`
			Error  string                     `json:"error"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		switch {
		case line.Sample != nil:
			samples++
			if sawResult {
				t.Fatal("sample after the terminal result line")
			}
		case line.Result != nil:
			sawResult = true
			if line.Result.Phases != 40 {
				t.Fatalf("streamed result phases = %d, want 40", line.Result.Phases)
			}
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	// recordEvery=10 over 40 phases: samples at phases 0,10,20,30.
	if samples != 4 || !sawResult {
		t.Fatalf("stream had %d samples (want 4), result=%v", samples, sawResult)
	}

	getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &st)
	if st.State != JobDone {
		t.Fatalf("job state = %s, want done", st.State)
	}
}

func TestCampaignJobStreamAndMemoization(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", campaignDoc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d (%s), want 202", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	sresp, err := http.Get(ts.URL + st.Stream)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var records int
	var result *CampaignResult
	scanner := bufio.NewScanner(sresp.Body)
	for scanner.Scan() {
		var line struct {
			Record *json.RawMessage `json:"record"`
			Result *CampaignResult  `json:"result"`
			Error  string           `json:"error"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		switch {
		case line.Record != nil:
			records++
		case line.Result != nil:
			result = line.Result
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		}
	}
	if records != 2 {
		t.Fatalf("streamed %d records, want 2", records)
	}
	if result == nil || result.Tasks != 2 || result.Failed != 0 || len(result.Cells) != 2 {
		t.Fatalf("unexpected campaign result: %+v", result)
	}
	runs := s.EngineRuns()

	// An identical campaign replays the memoized summary without running.
	resp, body = postJSON(t, ts.URL+"/v1/campaigns", campaignDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d (%s), want 200 cached", resp.StatusCode, body)
	}
	var cached JobStatus
	if err := json.Unmarshal(body, &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached || cached.State != JobDone {
		t.Fatalf("repeat campaign not served from cache: %+v", cached)
	}
	if s.EngineRuns() != runs {
		t.Fatal("cached campaign touched an engine")
	}
}

// fillQueue fills a server configured with one worker, one queue slot and the
// hook from holdFirstJob: the first job holds the worker, the second takes
// the slot. On cleanup it cancels the held job, so the server closes at once.
func fillQueue(t *testing.T, s *Server, ts *httptest.Server, held <-chan struct{}) {
	t.Helper()
	for i, name := range []string{"holder", "filler"} {
		doc := strings.Replace(pigouQuickDoc, "pigou-quick", name, 1)
		if resp, body := postJSON(t, ts.URL+"/v1/scenarios?mode=job", doc); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s job status %d (%s)", name, resp.StatusCode, body)
		}
		if i == 0 {
			<-held
		}
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = s.Close(ctx)
	})
}

func TestQueueFullRejects(t *testing.T) {
	hold, held := holdFirstJob()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, jobStarted: hold})
	fillQueue(t, s, ts, held)
	resp, body := postJSON(t, ts.URL+"/v1/scenarios?mode=job", pigouQuickDoc)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full-queue status %d (%s), want 503", resp.StatusCode, body)
	}
}

func TestGracefulCloseDrainsQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/scenarios?mode=job", pigouQuickDoc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	if got := s.jobByID(st.ID).status().State; got != JobDone {
		t.Fatalf("queued job state after drain = %s, want done", got)
	}

	// Draining servers still answer cache hits but refuse new work.
	resp, _ = postJSON(t, ts.URL+"/v1/scenarios", pigouQuickDoc)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-drain cached request: status %d X-Cache %q, want 200 hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	uncached := strings.Replace(pigouQuickDoc, "pigou-quick", "pigou-uncached", 1)
	resp, _ = postJSON(t, ts.URL+"/v1/scenarios", uncached)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission status %d, want 503", resp.StatusCode)
	}
}

func TestCloseDeadlineCancelsRunningJobs(t *testing.T) {
	hold, held := holdFirstJob()
	s := New(Config{Workers: 1, jobStarted: hold})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/scenarios?mode=job", slowDoc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	<-held

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); err != context.DeadlineExceeded {
		t.Fatalf("deadline close returned %v, want context.DeadlineExceeded", err)
	}
}

func TestHealthzAndCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var h map[string]any
	getJSON(t, ts.URL+"/healthz", &h)
	if h["status"] != "ok" || h["draining"] != false {
		t.Fatalf("healthz = %v", h)
	}
	var cat []struct{ Kind, Name string }
	getJSON(t, ts.URL+"/v1/catalog", &cat)
	if len(cat) == 0 {
		t.Fatal("empty catalog")
	}
	found := false
	for _, c := range cat {
		if c.Kind == "topology" && c.Name == "pigou" {
			found = true
		}
	}
	if !found {
		t.Fatal("catalog lacks the pigou topology")
	}
}

// TestCacheHammer drives the cache from many concurrent clients — the
// -race hammer: a mix of one shared spec (hits after the first miss) and
// per-goroutine unique specs (misses), all of which must return consistent
// bodies.
func TestCacheHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256, CacheEntries: 64})
	want := referenceResult(t, pigouQuickDoc)

	const goroutines = 16
	const perG = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				doc := pigouQuickDoc
				unique := i%3 == 0
				if unique {
					doc = strings.Replace(doc, "pigou-quick", fmt.Sprintf("pigou-quick-%d-%d", g, i), 1)
				}
				resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(doc))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				if !unique && !bytes.Equal(body, want) {
					errs <- fmt.Errorf("shared-spec body diverged: %s", body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
