package dispatch

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wardrop/internal/serve"
	"wardrop/internal/store"
	"wardrop/internal/sweep"
)

const campaignDoc = `{
	"name": "dist",
	"topologies": [{"family":"pigou"},{"family":"braess"}],
	"policies": [{"kind":"replicator"},{"kind":"uniform"}],
	"updatePeriods": [0.05],
	"seeds": 3,
	"maxPhases": 25,
	"delta": 0.3,
	"eps": 0.15
}`

func parseCampaign(t *testing.T, doc string) *sweep.Campaign {
	t.Helper()
	c, err := sweep.ParseCampaign(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startWorkers launches n in-process wardserve instances and returns their
// servers and URLs. Teardown rides the test cleanup.
func startWorkers(t *testing.T, n int, cfg serve.Config) ([]*serve.Server, []*httptest.Server, []string) {
	t.Helper()
	servers := make([]*serve.Server, n)
	https := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := serve.New(cfg)
		ts := httptest.NewServer(s)
		servers[i], https[i], urls[i] = s, ts, ts.URL
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_ = s.Close(ctx)
		})
	}
	return servers, https, urls
}

// canonicalBytes renders records in the canonical byte-comparable form.
func canonicalBytes(t *testing.T, recs []sweep.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep.EncodeRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDistributedByteIdentity(t *testing.T) {
	c := parseCampaign(t, campaignDoc)
	local, err := sweep.Run(context.Background(), c, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, urls := startWorkers(t, 3, serve.Config{Workers: 2})
	dist, err := Run(context.Background(), parseCampaign(t, campaignDoc), urls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Records) != len(local.Records) {
		t.Fatalf("distributed records = %d, local = %d", len(dist.Records), len(local.Records))
	}
	if got, want := canonicalBytes(t, dist.Records), canonicalBytes(t, local.Records); !bytes.Equal(got, want) {
		t.Errorf("distributed records differ from local:\n got %s\nwant %s", got, want)
	}
	// Wall time flows to in-memory consumers even though the canonical form
	// strips it: every distributed record carries the measured round trip.
	for _, r := range dist.Records {
		if r.WallMS <= 0 {
			t.Errorf("record %d has no wall time", r.ID)
		}
	}
}

// failNode is a test-owned transport that kills one node at a fixed point
// of the campaign: the request numbered from (counting every request from
// 1) picks its node as the victim, and that request and every later one to
// the victim fail as a transport error would. Other requests pass through.
// The coordinator sends at least one request per unit, so a campaign with
// at least from units always loses its victim, whatever the scheduling.
type failNode struct {
	from int

	mu     sync.Mutex
	sent   int
	victim string
}

func (f *failNode) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.sent++
	if f.sent == f.from {
		f.victim = req.URL.Host
	}
	fail := req.URL.Host == f.victim
	f.mu.Unlock()
	if fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("injected node failure")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// mustUnits returns the campaign's dedup units, failing the test unless
// there are at least atLeast of them.
func mustUnits(t *testing.T, c *sweep.Campaign, atLeast int) []*unit {
	t.Helper()
	tasks, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	units, err := buildUnits(c, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < atLeast {
		t.Fatalf("campaign has %d units, want at least %d", len(units), atLeast)
	}
	return units
}

// TestWorkerFailureMidCampaign kills one of three workers partway through
// and requires the merged output to stay byte-identical to a local run: the
// dead node's tasks must fail over to the survivors.
func TestWorkerFailureMidCampaign(t *testing.T) {
	doc := strings.Replace(campaignDoc, `"seeds": 3`, `"seeds": 9`, 1)
	c := parseCampaign(t, doc)
	local, err := sweep.Run(context.Background(), c, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, urls := startWorkers(t, 3, serve.Config{Workers: 2})
	kill := &failNode{from: 5}
	mustUnits(t, c, kill.from)

	var (
		evMu   sync.Mutex
		deaths int
	)
	opts := Options{
		Client: &http.Client{Transport: kill},
		Events: func(ev Event) {
			evMu.Lock()
			defer evMu.Unlock()
			if ev.Kind == EventNodeDead {
				deaths++
			}
		},
	}
	dist, err := Run(context.Background(), parseCampaign(t, doc), urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Records) != len(local.Records) {
		t.Fatalf("distributed records = %d, local = %d", len(dist.Records), len(local.Records))
	}
	for _, r := range dist.Records {
		if r.Error != "" {
			t.Errorf("record %d carries an error after failover: %s", r.ID, r.Error)
		}
	}
	if got, want := canonicalBytes(t, dist.Records), canonicalBytes(t, local.Records); !bytes.Equal(got, want) {
		t.Error("records differ from local run after a worker death")
	}
	evMu.Lock()
	defer evMu.Unlock()
	if deaths != 1 {
		t.Errorf("node-dead events = %d, want 1", deaths)
	}
}

// TestSecondRunIsAllCacheHits re-submits a campaign to a fleet sharing one
// durable store and pins the fleet-wide engine-run counter: consistent
// hashing keeps fingerprints on their home nodes, and anything work stealing
// moved in the first run is answered from the shared store.
func TestSecondRunIsAllCacheHits(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	servers, _, urls := startWorkers(t, 2, serve.Config{Workers: 2, Store: st})
	if _, err := Run(context.Background(), parseCampaign(t, campaignDoc), urls, Options{}); err != nil {
		t.Fatal(err)
	}
	total := func() int64 {
		var n int64
		for _, s := range servers {
			n += s.EngineRuns()
		}
		return n
	}
	first := total()
	if first == 0 {
		t.Fatal("no engine runs recorded on the fleet")
	}
	dist, err := Run(context.Background(), parseCampaign(t, campaignDoc), urls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := total(); got != first {
		t.Errorf("EngineRuns moved on a repeat campaign: %d -> %d", first, got)
	}
	if len(dist.Records) == 0 {
		t.Fatal("repeat run returned no records")
	}
}

func TestCancellationPropagates(t *testing.T) {
	// Effectively endless tasks; the run must come back promptly with the
	// context error once cancelled.
	doc := `{
		"name": "slow",
		"topologies": [{"family":"pigou"}],
		"policies": [{"kind":"replicator"}],
		"updatePeriods": [0.01],
		"seeds": 4,
		"horizon": 1000000
	}`
	_, _, urls := startWorkers(t, 2, serve.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, parseCampaign(t, doc), urls, Options{})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if ctx.Err() == nil || time.Since(start) > 5*time.Second {
		t.Fatalf("run did not return promptly on cancellation (%v after %v)", err, time.Since(start))
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result")
	}
	if len(res.Records) != 0 {
		t.Errorf("endless tasks produced %d records", len(res.Records))
	}
}

func TestNoWorkers(t *testing.T) {
	if _, err := Run(context.Background(), parseCampaign(t, campaignDoc), nil, Options{}); err == nil {
		t.Fatal("no-worker run succeeded")
	}
}

func TestRingStabilityAndFailover(t *testing.T) {
	workers := []string{"http://a", "http://b", "http://c"}
	r := newRing(workers)
	alive := []bool{true, true, true}
	keys := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		keys = append(keys, strings.Repeat("k", 1+i%7)+string(rune('a'+i%26))+string(rune('0'+i%10)))
	}
	owners := make(map[string]int, len(keys))
	counts := make([]int, 3)
	for _, k := range keys {
		o := r.owner(k, alive)
		if o < 0 {
			t.Fatalf("no owner for %q", k)
		}
		owners[k] = o
		counts[o]++
	}
	for i, n := range counts {
		if n == 0 {
			t.Errorf("node %d owns nothing across %d keys", i, len(keys))
		}
	}
	// Killing node 1 must move only node 1's keys.
	alive[1] = false
	for _, k := range keys {
		o := r.owner(k, alive)
		if owners[k] != 1 && o != owners[k] {
			t.Fatalf("key %q moved from surviving node %d to %d", k, owners[k], o)
		}
		if owners[k] == 1 && o == 1 {
			t.Fatalf("key %q still owned by the dead node", k)
		}
	}
	// No one alive: no owner.
	if o := r.owner(keys[0], []bool{false, false, false}); o != -1 {
		t.Fatalf("dead fleet produced owner %d", o)
	}
}
