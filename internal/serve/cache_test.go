package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"wardrop/internal/catalog"
	"wardrop/internal/flow"
	"wardrop/internal/scenario"
	"wardrop/internal/topo"
)

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU(2)
	c.Add("a", []byte("A"))
	c.Add("b", []byte("B"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	// a was just used, so adding c evicts b.
	c.Add("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if v, ok := c.Get("a"); !ok || !bytes.Equal(v, []byte("A")) {
		t.Fatal("a lost")
	}
	if v, ok := c.Get("c"); !ok || !bytes.Equal(v, []byte("C")) {
		t.Fatal("c lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Re-adding an existing key updates in place without eviction.
	c.Add("a", []byte("A2"))
	if v, _ := c.Get("a"); !bytes.Equal(v, []byte("A2")) {
		t.Fatal("update lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len after update = %d, want 2", c.Len())
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRU(-1)
	c.Add("a", []byte("A"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored a value")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache reports entries")
	}
}

// panicFamily is a topology family whose constructor panics, registered
// once per test binary (the registries are process-global, so a repeated
// run must not register it again).
var panicFamily = func() string {
	const name = "serve-test-panics"
	err := topo.Catalog.Register(catalog.Entry[topo.Builder]{
		Name: name,
		Doc:  "test-only family whose constructor panics",
		Build: func(args json.RawMessage) (topo.Builder, error) {
			return topo.Builder{Key: name, New: func(seed uint64) (*flow.Instance, error) {
				panic("deliberate test panic")
			}}, nil
		},
	})
	if err != nil {
		panic(err)
	}
	return name
}()

// TestJobPanicIsolation poisons a topology family whose constructor panics:
// the job must fail with a recorded panic while the worker (and every later
// request) keeps serving.
func TestJobPanicIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	doc := `{"topology":{"family":"` + panicFamily + `"},"policy":{"kind":"replicator"},"updatePeriod":0.05,"maxPhases":10}`
	resp, body := postJSON(t, ts.URL+"/v1/scenarios", doc)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("poisoned job status %d (%s), want 422", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("error body %q lacks an error field", body)
	}

	// The worker survived the panic.
	resp, _ = postJSON(t, ts.URL+"/v1/scenarios", pigouQuickDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request status %d", resp.StatusCode)
	}
	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.JobsFailed != 1 {
		t.Fatalf("jobsFailed = %d, want 1", m.JobsFailed)
	}
}

// TestJobStreamBufferBounded pins the replay-buffer budget: a job that
// emits more than its byte budget keeps streaming live, but the retained
// replay window is trimmed from the front and late attachers are owed a
// truncation marker. The terminal result line always survives.
func TestJobStreamBufferBounded(t *testing.T) {
	j := newJob(kindScenario, "fp", context.Background(), 256)
	total := 50
	for i := 0; i < total; i++ {
		j.appendLine(streamLine{Sample: &scenario.TrajectorySample{Time: float64(i), Flow: []float64{1, 0}}})
	}
	j.complete([]byte("{\"phases\":1}\n"), false)

	lines, next, _, truncated, terminal := j.follow(0)
	if !truncated || !terminal {
		t.Fatalf("follow(0): truncated=%v terminal=%v, want true/true", truncated, terminal)
	}
	if next != total+1 {
		t.Fatalf("next = %d, want %d (every line indexed, trimmed or not)", next, total+1)
	}
	if len(lines) == total+1 {
		t.Fatal("buffer was not trimmed despite the 256-byte budget")
	}
	var bytesKept int
	for _, ln := range lines {
		bytesKept += len(ln)
	}
	if bytesKept > 256+len(lines[len(lines)-1]) {
		t.Fatalf("retained %d bytes, budget 256", bytesKept)
	}
	if !bytes.Contains(lines[len(lines)-1], []byte(`"result"`)) {
		t.Fatalf("terminal result line missing: %q", lines[len(lines)-1])
	}
	if got := j.status().Lines; got != total+1 {
		t.Fatalf("status.Lines = %d, want total emitted %d", got, total+1)
	}
	// A follower already past the window sees no truncation.
	if _, _, _, truncated, _ := j.follow(next); truncated {
		t.Fatal("up-to-date follower reported truncated")
	}
}

// TestFollowTrimRace pins the follow/trim aliasing fix: readers hold a
// copied snapshot, so the trim loop nil-ing old backing-array slots can
// never hand a stream a nil line (fails under -race without the copy).
func TestFollowTrimRace(t *testing.T) {
	j := newJob(kindScenario, "fp", context.Background(), 128)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			j.appendLine(streamLine{Sample: &scenario.TrajectorySample{Time: float64(i), Flow: []float64{1}}})
		}
	}()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		lines, _, _, _, _ := j.follow(0)
		for _, ln := range lines {
			if len(ln) == 0 {
				t.Fatal("follow returned a trimmed (nil) line")
			}
		}
	}
}
