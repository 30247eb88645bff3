package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"wardrop/internal/flow"
	"wardrop/internal/store"
	"wardrop/internal/sweep"
)

// taskDoc is a quick deterministic task spec — one pigou cell at one seed,
// the distributed-sweep work unit.
const taskDoc = `{"topology":{"family":"pigou"},"policy":{"kind":"replicator"},"period":0.05,"seed":42,"maxPhases":40,"delta":0.3,"eps":0.15}`

// referenceTaskRecord runs the task spec through the library directly and
// returns the canonical record line /v1/tasks must reproduce byte-for-byte.
func referenceTaskRecord(t *testing.T, doc string) []byte {
	t.Helper()
	ts, err := sweep.ParseTaskSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	rec, aborted := sweep.RunTaskSpec(context.Background(), ts, nil, flow.NewWorkspace())
	if aborted {
		t.Fatal("reference task run aborted")
	}
	b, err := json.Marshal(sweep.CanonicalRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestTaskEndpointByteIdentityAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	want := referenceTaskRecord(t, taskDoc)

	resp, body := postJSON(t, ts.URL+"/v1/tasks", taskDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != TierMiss {
		t.Fatalf("first request X-Cache = %q, want %s", got, TierMiss)
	}
	if string(body) != string(want) {
		t.Fatalf("task record differs from local run:\n got %s\nwant %s", body, want)
	}
	if resp.Header.Get("X-Fingerprint") == "" {
		t.Fatal("missing X-Fingerprint")
	}

	resp, body = postJSON(t, ts.URL+"/v1/tasks", taskDoc)
	if got := resp.Header.Get("X-Cache"); got != TierHit {
		t.Fatalf("second request X-Cache = %q, want %s", got, TierHit)
	}
	if string(body) != string(want) {
		t.Fatalf("cached task record differs:\n got %s\nwant %s", body, want)
	}
	if runs := s.EngineRuns(); runs != 1 {
		t.Fatalf("EngineRuns = %d after a repeat submission, want 1", runs)
	}
}

// TestTaskFailureComesBackAsRecord pins the distributed error contract: a
// task whose run fails still answers 200 with a record carrying the error —
// the same record a local sweep would emit — so merged artifacts stay
// byte-identical when cells fail. (Better response has no finite smoothness
// constant, so a "safe" period cannot be resolved: the task fails at run
// time after validating cleanly.)
func TestTaskFailureComesBackAsRecord(t *testing.T) {
	const failDoc = `{"topology":{"family":"pigou"},"policy":{"kind":"uniform","migrator":"betterresponse"},"period":"safe","seed":7,"horizon":5}`
	want := referenceTaskRecord(t, failDoc)
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/tasks", failDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
	var rec sweep.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Error == "" {
		t.Fatalf("record carries no error: %s", body)
	}
	if string(body) != string(want) {
		t.Fatalf("error record differs from local run:\n got %s\nwant %s", body, want)
	}
	if runs := s.EngineRuns(); runs != 1 {
		t.Fatalf("EngineRuns = %d, want 1 (failed tasks count like local sweeps)", runs)
	}
}

// TestStoreTierSurvivesRestart is the durability acceptance test: a second
// server opened on the same store directory serves previously computed
// fingerprints from the CAS without re-running any engine.
func TestStoreTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st1})
	want := referenceTaskRecord(t, taskDoc)
	resp, body := postJSON(t, ts1.URL+"/v1/tasks", taskDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	wantScenario := referenceResult(t, pigouQuickDoc)
	if resp, body = postJSON(t, ts1.URL+"/v1/scenarios", pigouQuickDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario status %d: %s", resp.StatusCode, body)
	}
	if runs := s1.EngineRuns(); runs != 2 {
		t.Fatalf("first server EngineRuns = %d, want 2", runs)
	}
	var m1 Metrics
	getJSON(t, ts1.URL+"/metrics", &m1)
	if m1.StorePuts != 2 || m1.StoreObjects != 2 {
		t.Fatalf("store metrics after two runs: puts=%d objects=%d, want 2/2", m1.StorePuts, m1.StoreObjects)
	}

	// "Restart": a fresh server and a fresh store handle on the same
	// directory — nothing in memory survives.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: st2})
	resp, body = postJSON(t, ts2.URL+"/v1/tasks", taskDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != TierHitStore {
		t.Fatalf("restarted server X-Cache = %q, want %s", got, TierHitStore)
	}
	if string(body) != string(want) {
		t.Fatalf("durable task record differs:\n got %s\nwant %s", body, want)
	}
	resp, body = postJSON(t, ts2.URL+"/v1/scenarios", pigouQuickDoc)
	if got := resp.Header.Get("X-Cache"); got != TierHitStore {
		t.Fatalf("restarted server scenario X-Cache = %q, want %s", got, TierHitStore)
	}
	if string(body) != string(wantScenario) {
		t.Fatal("durable scenario result differs from local run")
	}
	if runs := s2.EngineRuns(); runs != 0 {
		t.Fatalf("restarted server EngineRuns = %d, want 0 (all served from store)", runs)
	}
	var m2 Metrics
	getJSON(t, ts2.URL+"/metrics", &m2)
	if m2.StoreHits != 2 || m2.CacheHits != 2 {
		t.Fatalf("restarted server hits: store=%d cache=%d, want 2/2", m2.StoreHits, m2.CacheHits)
	}
	// The store hit promoted the object into the LRU: a third submission is
	// a pure memory hit.
	resp, _ = postJSON(t, ts2.URL+"/v1/tasks", taskDoc)
	if got := resp.Header.Get("X-Cache"); got != TierHit {
		t.Fatalf("post-promotion X-Cache = %q, want %s", got, TierHit)
	}
}

// TestQueueFullRetryAfterAndHighWater pins the load-shedding contract: a
// queue-full 503 carries Retry-After, and /metrics exposes the queue bound
// and its high-water mark.
func TestQueueFullRetryAfterAndHighWater(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	resp, body := postJSON(t, ts.URL+"/v1/scenarios?mode=job", slowDoc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow job status %d (%s)", resp.StatusCode, body)
	}
	var full *http.Response
	for i := 0; i < 3 && full == nil; i++ {
		doc := strings.Replace(slowDoc, "slow", "slow-"+string(rune('a'+i)), 1)
		resp, _ = postJSON(t, ts.URL+"/v1/scenarios?mode=job", doc)
		if resp.StatusCode == http.StatusServiceUnavailable {
			full = resp
		}
	}
	if full == nil {
		t.Fatal("queue never reported full")
	}
	if got := full.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("queue-full Retry-After = %q, want 1", got)
	}
	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.QueueCapacity != 1 {
		t.Fatalf("QueueCapacity = %d, want 1", m.QueueCapacity)
	}
	if m.QueueHighWater < 1 {
		t.Fatalf("QueueHighWater = %d, want >= 1", m.QueueHighWater)
	}
}

// TestHealthzReadiness pins the /healthz contract: a healthy store-backed
// server answers 200 with a passing store probe and queue saturation, a
// broken durable tier flips the endpoint to 503 with the probe error, and a
// draining server is not ready. /metrics mirrors the probe outcome and the
// saturation.
func TestHealthzReadiness(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Store: st})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy healthz status = %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.Store != storeOK || h.Draining {
		t.Fatalf("healthy healthz = %+v", h)
	}
	if h.QueueCapacity != 4 || h.QueueSaturation != 0 {
		t.Fatalf("queue fields = %+v", h)
	}

	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.StoreProbe != storeOK || m.QueueSaturation != 0 {
		t.Fatalf("metrics probe fields = %+v", m)
	}

	// Break the durable tier: replace the store directory with a regular
	// file so the probe's write fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = Health{}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("broken-store healthz status = %d", resp.StatusCode)
	}
	if h.Status != "unavailable" || !strings.HasPrefix(h.Store, "error: ") {
		t.Fatalf("broken-store healthz = %+v", h)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}

	// Draining is terminal for readiness.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = Health{}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !h.Draining {
		t.Fatalf("draining healthz = %d %+v", resp.StatusCode, h)
	}
}

// TestEpochBumpMissesAndRecomputes pins the result epoch: a server whose
// cache runs one epoch later misses the result a previous epoch stored,
// recomputes it, stores it again under the new key and answers the same
// fingerprint.
func TestEpochBumpMissesAndRecomputes(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Workers: 1, Store: st1})
	resp, want := postJSON(t, ts1.URL+"/v1/scenarios", pigouQuickDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, want)
	}
	fp := resp.Header.Get("X-Fingerprint")
	if runs := s1.EngineRuns(); runs != 1 {
		t.Fatalf("first server EngineRuns = %d, want 1", runs)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 1, Store: st2})
	s2.cache.epoch = resultEpoch + 1
	resp, body := postJSON(t, ts2.URL+"/v1/scenarios", pigouQuickDoc)
	if got := resp.Header.Get("X-Cache"); got != TierMiss {
		t.Fatalf("bumped epoch X-Cache = %q, want %s", got, TierMiss)
	}
	if got := resp.Header.Get("X-Fingerprint"); got != fp {
		t.Fatalf("X-Fingerprint = %q after the bump, want %q", got, fp)
	}
	if string(body) != string(want) {
		t.Fatal("recomputed result differs from the stored one")
	}
	if runs := s2.EngineRuns(); runs != 1 {
		t.Fatalf("bumped server EngineRuns = %d, want 1", runs)
	}
	var m Metrics
	getJSON(t, ts2.URL+"/metrics", &m)
	if m.StoreHits != 0 || m.StorePuts != 1 || m.StoreObjects != 2 {
		t.Fatalf("store after the bump: hits=%d puts=%d objects=%d, want 0/1/2", m.StoreHits, m.StorePuts, m.StoreObjects)
	}

	// A restarted server at the bumped epoch finds the new object.
	st3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s3, ts3 := newTestServer(t, Config{Workers: 1, Store: st3})
	s3.cache.epoch = resultEpoch + 1
	if resp, _ = postJSON(t, ts3.URL+"/v1/scenarios", pigouQuickDoc); resp.Header.Get("X-Cache") != TierHitStore {
		t.Fatalf("restart at the bumped epoch X-Cache = %q, want %s", resp.Header.Get("X-Cache"), TierHitStore)
	}
	if runs := s3.EngineRuns(); runs != 0 {
		t.Fatalf("restart at the bumped epoch EngineRuns = %d, want 0", runs)
	}
}
