package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runTiny(t *testing.T, workload, trace string) result {
	t.Helper()
	var out bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "0.3", "-trace", trace, "-tiny", "-root", t.TempDir()}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	return r
}

// TestSmoke runs every workload at tiny size, untraced and traced, with
// every output check on.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				r := runTiny(t, name, trace)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				if trace == "1" {
					for _, st := range spanStats {
						if v := r.Metrics[st.metric].Value; !(v > 0) {
							t.Errorf("span metric %s = %v, want > 0", st.metric, v)
						}
					}
				}
			})
		}
	}
}

// stubTraffic is serve traffic against an arbitrary handler, with one
// document per entry of bodies and each document's expected answer.
func stubTraffic(t *testing.T, h http.Handler, docs, want []string) *serveTraffic {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	s := &serveTraffic{rep: newReport(false), rig: &rig{url: srv.URL}, client: newClient(nil, "", 1, nil), conns: 1}
	for i := range docs {
		s.docs = append(s.docs, []byte(docs[i]))
		s.want = append(s.want, sha256.Sum256([]byte(want[i])))
		s.known = append(s.known, true)
	}
	return s
}

// TestStallShowsInDueTimeLatency stalls one request for 200 ms in an open
// loop at 100 req/s: the requests that fell due during the stall must show
// it in their latency, not just the stalled one.
func TestStallShowsInDueTimeLatency(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(200 * time.Millisecond)
		}
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte("ok\n"))
	})
	s := stubTraffic(t, h, []string{"{}"}, []string{"ok\n"})
	outs := s.openLoop(make([]request, 50), 100)
	late := 0
	for _, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("request failed: %v %d", o.err, o.status)
		}
		if o.latency > 100*time.Millisecond {
			late++
		}
	}
	if late < 8 {
		t.Fatalf("%d requests over 100 ms after a 200 ms stall at 100 req/s, want >= 8", late)
	}
	if !(quantile(latencies(outs), 0.9) > 50) {
		t.Fatalf("p90 %.1f ms does not show the stall", quantile(latencies(outs), 0.9))
	}
}

// TestFailRatioCountsCorruptionAndRefusal: a corrupted body and a 503
// refusal each count as a failed operation.
func TestFailRatioCountsCorruptionAndRefusal(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body bytes.Buffer
		body.ReadFrom(r.Body)
		switch body.String() {
		case "good":
			w.Write([]byte("result\n"))
		case "corrupt":
			w.Write([]byte("resulT\n"))
		default:
			http.Error(w, "queue full", http.StatusServiceUnavailable)
		}
	})
	s := stubTraffic(t, h, []string{"good", "corrupt", "refused"}, []string{"result\n", "result\n", "result\n"})
	s.verify(s.openLoop([]request{{spec: 0}, {spec: 1}, {spec: 2}, {spec: 0}}, 200))
	if s.rep.attempted != 4 || s.rep.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2", s.rep.attempted, s.rep.failed)
	}
	var out bytes.Buffer
	s.rep.tr = newTracer()
	for _, m := range perLayer {
		if m.name != "fail_ratio" {
			s.rep.set(m.name, m.unit, 1)
		}
	}
	if err := s.rep.write(&out, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"fail_ratio":{"value":0.5,`) || !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("result does not report the failures: %s", out.String())
	}
}

// TestSelfTime checks self times on a hand-built span tree with
// overlapping children and a child that outlives its parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "a1", ID: 4, Parent: 2, Start: 15, End: 20},
		{Name: "c", ID: 5, Parent: 1, Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestBenchmarkJSONMatchesLists pins BENCHMARK.json to the metric lists
// and workloads the program reports.
func TestBenchmarkJSONMatchesLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if strings.Join(names, ",") != strings.Join(known, ",") {
		t.Errorf("workloads %v, program has %v", names, known)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s %s, program reports %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
