package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wardrop/internal/engine"
	"wardrop/internal/scenario"
	"wardrop/internal/serve"
	"wardrop/internal/store"
)

// serveShape sizes one serve run.
type serveShape struct {
	catalogue int           // distinct specs written to the store in set-up
	lru       int           // the server's in-memory cache entries
	rate      float64       // nominal open-loop rate, requests per second
	nominal   time.Duration // time at the nominal rate
	ladder    time.Duration // time per max_rps ladder step
	// fresh is the share of requests that carry a never-seen spec, jobs
	// the share submitted as ?mode=job and followed on the job stream.
	fresh, jobs float64
}

// latencyLimitMS is the p99 limit a ladder rate must meet to count
// towards max_rps.
const latencyLimitMS = 50

// ladderSteps multiply the nominal rate for the max_rps ladder.
var ladderSteps = []float64{1, 2, 3, 4, 6, 8, 12, 16}

// specGen makes seeded scenario documents: pigou, braess, links and small
// grids, mostly fluid with some count and small-N agents engines, and about
// one in ten with a timeline. Each costs about a millisecond of engine time.
type specGen struct{ seed uint64 }

func (g specGen) doc(label string, i int) []byte {
	r := rand.New(rand.NewSource(int64(derive(g.seed, fmt.Sprint(label, "/", i)))))
	name := fmt.Sprintf("%s-%d", label, i)
	pol := []string{"replicator", "uniform"}[r.Intn(2)]
	start := []string{"uniform", "skewed"}[r.Intn(2)]
	if r.Float64() < 0.1 {
		at := 1 + r.Intn(3)
		return []byte(fmt.Sprintf(`{"name":%q,"topology":{"family":"braess"},"policy":{"kind":%q},"updatePeriod":0.25,"horizon":8,`+
			`"timeline":{"events":[{"at":%d,"action":"block","from":"a","to":"b","penalty":%d},{"at":%d,"action":"restore","from":"a","to":"b"}]}}`,
			name, pol, at, 2+r.Intn(4), at+3))
	}
	var top string
	phases := 40
	switch r.Intn(4) {
	case 0:
		top = `{"family":"pigou"}`
	case 1:
		top = `{"family":"braess"}`
	case 2:
		top = fmt.Sprintf(`{"family":"links","size":%d}`, 3+r.Intn(6))
	default:
		top = fmt.Sprintf(`{"family":"grid","size":%d}`, 3+r.Intn(2))
		phases = 10
	}
	eng := ""
	switch u := r.Float64(); {
	case u < 0.2:
		eng = fmt.Sprintf(`,"engine":{"kind":"count","n":%d,"seed":%d}`, 10_000*(1+r.Intn(100)), r.Uint32())
	case u < 0.3:
		eng = fmt.Sprintf(`,"engine":{"kind":"agents","n":%d,"seed":%d}`, 500+r.Intn(1500), r.Uint32())
		phases = 10
	}
	return []byte(fmt.Sprintf(`{"name":%q,"topology":%s,"policy":{"kind":%q},"start":%q,"maxPhases":%d%s}`,
		name, top, pol, start, phases, eng))
}

// localResult runs a document the way the server does (Spec.Run, then
// NewRunResult and Encode) and returns the result document.
func localResult(doc []byte) (*scenario.Spec, *engine.Result, []byte, error) {
	spec, err := scenario.Parse(bytes.NewReader(doc))
	if err != nil {
		return nil, nil, nil, err
	}
	res, events, err := spec.Run(context.Background(), nil)
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := scenario.NewRunResult(spec, res, events)
	if err != nil {
		return nil, nil, nil, err
	}
	var buf bytes.Buffer
	err = out.Encode(&buf)
	return spec, res, buf.Bytes(), err
}

// rig is one in-process serve.Server listening on loopback TCP.
type rig struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startRig serves h (srv, or a tracing wrapper around it) on a fresh
// loopback port.
func startRig(srv *serve.Server, h http.Handler) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		_ = r.http.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return r, nil
}

// close stops the listener, waits for requests in flight and the serve
// goroutine, then drains the server's workers.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.http.Shutdown(ctx)
	<-r.done
	return errors.Join(err, r.srv.Close(ctx))
}

// spanHeader carries the client span's trace and id to the server, so the
// handler span can name its parent.
const spanHeader = "X-Bench-Span"

// traceHandler wraps a server's ServeHTTP in a span named name, parented
// to the client span named in the request, and tagged with the X-Cache
// tier ("job" for a ?mode=job submission, "stream" for a job stream).
func traceHandler(tr *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var trace, parent uint64
		if v := req.Header.Get(spanHeader); v != "" {
			t, p, _ := strings.Cut(v, ".")
			trace, _ = strconv.ParseUint(t, 10, 64)
			parent, _ = strconv.ParseUint(p, 10, 64)
		}
		sp := tr.start(name, trace, parent)
		next.ServeHTTP(w, req)
		tag := w.Header().Get("X-Cache")
		switch {
		case strings.HasSuffix(req.URL.Path, "/stream"):
			tag = "stream"
		case req.URL.Query().Get("mode") == "job":
			tag = "job"
		}
		sp.end(tag)
	})
}

// traceTransport opens a client span per request and passes its identity
// in spanHeader; the span ends when the response body is closed. onDone,
// if set, receives every round trip's duration.
type traceTransport struct {
	tr     *tracer
	name   string
	base   http.RoundTripper
	onDone func(time.Duration)
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tr.start(t.name, 0, 0)
	start := time.Now()
	if t.tr != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", sp.s.Trace, sp.s.ID))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end("error")
		return nil, err
	}
	resp.Body = &endBody{ReadCloser: resp.Body, end: func() {
		sp.end("")
		if t.onDone != nil {
			t.onDone(time.Since(start))
		}
	}}
	return resp, nil
}

// endBody calls end once, when the body is closed.
type endBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// newClient is an HTTP client of at most conns connections per host.
func newClient(tr *tracer, name string, conns int, onDone func(time.Duration)) *http.Client {
	base := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &http.Client{Transport: &traceTransport{tr: tr, name: name, base: base, onDone: onDone}}
}

// request is one generated request: a document and how to submit it.
type request struct {
	spec int // index into the run's documents
	job  bool
}

// outcome is one request's result as the client saw it.
type outcome struct {
	spec      int
	latency   time.Duration // from due (open loop) or send (closed loop) to the last byte
	lag       time.Duration // send time minus due time
	stream    time.Duration // job accept to the final stream line
	tier      string
	digest    [32]byte
	status    int
	err       error
	dueOffset time.Duration
}

// serveTraffic is one server with its store, documents and clients.
type serveTraffic struct {
	rep    *report
	shape  serveShape
	docs   [][]byte   // catalogue first, then never-seen documents
	bodies [][]byte   // the catalogue's result documents
	fps    []string   // the catalogue's fingerprints
	want   [][32]byte // expected result digest per document (lazily for fresh ones)
	known  []bool
	fresh  int // never-seen documents made so far
	rng    *rand.Rand
	zipf   *rand.Zipf
	rig    *rig
	client *http.Client
	conns  int
	gen    specGen
}

// newServeTraffic generates the catalogue from seed and computes each
// entry's result locally (the expected bytes, and the store's contents).
func newServeTraffic(rep *report, shape serveShape, seed uint64) (*serveTraffic, error) {
	s := &serveTraffic{rep: rep, shape: shape, gen: specGen{seed}, conns: runtime.NumCPU()}
	s.rng = rand.New(rand.NewSource(int64(derive(seed, "serve/mix"))))
	s.zipf = rand.NewZipf(s.rng, 1.1, 1, uint64(shape.catalogue-1))
	for i := 0; i < shape.catalogue; i++ {
		doc := s.gen.doc("cat", i)
		spec, _, body, err := localResult(doc)
		if err != nil {
			return nil, fmt.Errorf("catalogue entry %d: %w", i, err)
		}
		fp, err := spec.Fingerprint()
		if err != nil {
			return nil, err
		}
		s.docs, s.bodies, s.fps = append(s.docs, doc), append(s.bodies, body), append(s.fps, fp)
		s.want = append(s.want, sha256.Sum256(body))
		s.known = append(s.known, true)
	}
	return s, nil
}

// populate writes the catalogue's results to a store in dir: the state a
// previous life of the service left on disk.
func (s *serveTraffic) populate(dir string) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	for i, body := range s.bodies {
		if err := st.Put(s.fps[i], body); err != nil {
			return err
		}
	}
	return nil
}

// start opens the store in dir and starts a server on it.
func (s *serveTraffic) start(dir string) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{CacheEntries: s.shape.lru, Store: st})
	var h http.Handler = srv
	if s.rep.tr != nil {
		h = traceHandler(s.rep.tr, "serve.handler", srv)
	}
	if s.rig, err = startRig(srv, h); err != nil {
		return err
	}
	s.client = newClient(s.rep.tr, "client.request", s.conns, nil)
	return nil
}

func (s *serveTraffic) close() error {
	s.client.CloseIdleConnections()
	return s.rig.close()
}

// next draws the next request of the mix.
func (s *serveTraffic) next() request {
	u := s.rng.Float64()
	switch {
	case u < s.shape.fresh:
		return request{spec: s.newFresh()}
	case u < s.shape.fresh+s.shape.jobs:
		if s.rng.Intn(2) == 0 {
			return request{spec: s.newFresh(), job: true}
		}
		return request{spec: int(s.zipf.Uint64()), job: true}
	}
	return request{spec: int(s.zipf.Uint64())}
}

// newFresh appends a never-seen document.
func (s *serveTraffic) newFresh() int {
	s.fresh++
	s.docs = append(s.docs, s.gen.doc("fresh", s.fresh))
	s.want = append(s.want, [32]byte{})
	s.known = append(s.known, false)
	return len(s.docs) - 1
}

// do sends one request and reads the whole answer.
func (s *serveTraffic) do(rq request, due time.Time) outcome {
	sent := time.Now()
	o := outcome{spec: rq.spec, lag: sent.Sub(due)}
	url := s.rig.url + "/v1/scenarios"
	if rq.job {
		url += "?mode=job"
	}
	resp, err := s.client.Post(url, "application/json", bytes.NewReader(s.docs[rq.spec]))
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.status, o.tier = resp.StatusCode, resp.Header.Get("X-Cache")
	if err != nil {
		o.err = err
		return o
	}
	if !rq.job || resp.StatusCode >= 300 {
		o.latency = time.Since(due)
		o.digest = sha256.Sum256(body)
		return o
	}
	accepted := time.Now()
	o.tier = "job"
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		o.err = fmt.Errorf("job status: %w", err)
		return o
	}
	result, err := s.follow(st.Stream)
	o.latency, o.stream = time.Since(due), time.Since(accepted)
	if err != nil {
		o.err = err
		return o
	}
	o.digest = sha256.Sum256(append(result, '\n'))
	return o
}

// follow reads a job stream to its final result line.
func (s *serveTraffic) follow(path string) ([]byte, error) {
	resp, err := s.client.Get(s.rig.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var line struct {
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("job stream: %w", err)
		}
		if line.Error != "" {
			return nil, fmt.Errorf("job failed: %s", line.Error)
		}
		if line.Result != nil {
			return append([]byte(nil), line.Result...), nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("job stream ended without a result")
}

// draw makes the next n requests of the mix.
func (s *serveTraffic) draw(n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = s.next()
	}
	return reqs
}

// openLoop sends reqs at a fixed rate from at most s.conns goroutines,
// each request due at its slot on the schedule. Every request is timed
// from when it was due, so a stall delays the requests behind it and shows
// in their latency.
func (s *serveTraffic) openLoop(reqs []request, rate float64) []outcome {
	n := len(reqs)
	out := make([]outcome, n)
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < s.conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * period)
				time.Sleep(time.Until(due))
				out[k] = s.do(reqs[k], due)
				out[k].dueOffset = due.Sub(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// verify counts every outcome as an operation: a transport error, a
// non-200 answer (a 503 refusal included) or a body that differs from the
// local result of the same document fails it.
func (s *serveTraffic) verify(outs []outcome) {
	for _, o := range outs {
		err := o.err
		if err == nil && o.status != http.StatusOK && o.status != http.StatusAccepted {
			err = fmt.Errorf("status %d", o.status)
		}
		if err == nil {
			if !s.known[o.spec] {
				_, _, body, lerr := localResult(s.docs[o.spec])
				if lerr != nil {
					err = fmt.Errorf("local reference: %w", lerr)
				}
				s.want[o.spec], s.known[o.spec] = sha256.Sum256(body), true
			}
			if err == nil && o.digest != s.want[o.spec] {
				err = fmt.Errorf("document %d (%s): answer differs from the local result", o.spec, o.tier)
			}
		}
		s.rep.op(err)
	}
}

// lagGrowing reports whether the generator fell behind its schedule for
// good: the last tenth of the requests were sent more than 100 ms late.
func lagGrowing(outs []outcome) bool {
	if len(outs) < 10 {
		return false
	}
	var tail []float64
	for _, o := range outs[len(outs)*9/10:] {
		tail = append(tail, ms(o.lag))
	}
	return median(tail) > 100
}

func latencies(outs []outcome) []float64 {
	l := make([]float64, 0, len(outs))
	for _, o := range outs {
		l = append(l, ms(o.latency))
	}
	return l
}

// serveProbe measures the serve, scenario, store and network layers in a
// traced run: one server with an on-disk store tier, a seeded catalogue
// four times its LRU written to the store beforehand, and open-loop traffic
// drawn Zipf-like from the catalogue plus never-seen specs and streamed
// jobs, then the max_rps ladder.
func serveProbe(cfg config, rep *report) error {
	shape := serveShape{catalogue: 256, lru: 64, rate: 500, nominal: 2 * time.Second, ladder: 500 * time.Millisecond,
		fresh: 0.02, jobs: 0.02}
	if cfg.tiny {
		shape = serveShape{catalogue: 12, lru: 3, rate: 100, nominal: 500 * time.Millisecond, ladder: 100 * time.Millisecond,
			fresh: 0.05, jobs: 0.05}
	}
	return serveRun(cfg, rep, shape)
}

// serveRun sets up, measures and checks one serve run: open-loop
// traffic at the nominal rate, then the max_rps ladder, then direct calls
// into the scenario and store layers.
func serveRun(cfg config, rep *report, shape serveShape) error {
	s, err := newServeTraffic(rep, shape, derive(cfg.seed, "serve"))
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.dir, "serve-store")
	if err := s.populate(dir); err != nil {
		return err
	}
	if err := s.start(dir); err != nil {
		return err
	}
	// Warm the connections and the code paths.
	s.verify(s.openLoop(s.draw(int(shape.rate/10)), shape.rate))
	runsBefore := s.rig.srv.EngineRuns()
	outs := s.openLoop(s.draw(int(shape.rate*shape.nominal.Seconds())), shape.rate)
	if lagGrowing(outs) {
		s.close()
		return fmt.Errorf("run invalid: the load generator fell behind its schedule at %g req/s", shape.rate)
	}
	s.verify(outs)
	var lags []float64
	for _, o := range outs {
		lags = append(lags, ms(o.lag))
	}
	rep.note("serve: %d requests at %g req/s, lag p99 %.3f ms, catalogue %d, LRU %d", len(outs), shape.rate, quantile(lags, 0.99), shape.catalogue, shape.lru)
	rep.note("serve: %s", tierSummary(outs))

	shares := map[string]int{}
	var streams []float64
	refused := 0
	for _, o := range outs {
		shares[o.tier]++
		if o.tier == "job" {
			streams = append(streams, ms(o.stream))
		}
		if o.status == http.StatusServiceUnavailable {
			refused++
		}
	}
	for _, t := range tiers {
		rep.set("serve.share."+t, "ratio", float64(shares[t])/float64(len(outs)))
	}
	rep.set("serve.stream_ms_p50", "ms", median(streams))
	rep.set("serve.refused", "count", float64(refused))
	rep.set("serve.engine_runs", "count", float64(s.rig.srv.EngineRuns()-runsBefore))
	rep.set("loadgen.lag_ms_p99", "ms", quantile(lags, 0.99))
	reg := s.rig.srv.Registry()
	rep.set("serve.queue_wait_ms_p99", "ms", reg.FindHistogram("serve_queue_wait_ms").Quantile(0.99))
	rep.set("serve.run_ms_p50", "ms", reg.FindHistogram("serve_run_ms").Quantile(0.5))

	// max_rps: climb the ladder until a step misses the p99 limit or the
	// generator falls behind; report the achieved rate of the last step
	// that held.
	best := 0.0
	for _, m := range ladderSteps {
		rate := shape.rate * m
		step := s.openLoop(s.draw(int(rate*shape.ladder.Seconds())), rate)
		s.verify(step)
		last := step[len(step)-1]
		achieved := float64(len(step)) / (last.dueOffset + last.latency).Seconds()
		if quantile(latencies(step), 0.99) > latencyLimitMS || lagGrowing(step) {
			break
		}
		best = achieved
	}
	rep.set("max_rps", "1/s", best)
	if err := s.close(); err != nil {
		return err
	}
	return s.layerCalls(cfg)
}

// layerCalls times scenario.Parse and Spec.Fingerprint on served
// documents, NewRunResult+Encode on their locally computed results, and
// store Put and Get of those result documents in a separate store.
func (s *serveTraffic) layerCalls(cfg config) error {
	tr := s.rep.tr
	var bodies [][]byte
	for i := 0; i < probeReps*2 && i < len(s.docs); i++ {
		doc := s.docs[(i*7919)%len(s.docs)]
		var spec *scenario.Spec
		var err error
		tr.time("scenario.parse", func() { spec, err = scenario.Parse(bytes.NewReader(doc)) })
		if err != nil {
			return err
		}
		tr.time("scenario.fingerprint", func() { _, err = spec.Fingerprint() })
		if err != nil {
			return err
		}
		spec, res, body, err := localResult(doc)
		if err != nil {
			return err
		}
		tr.time("scenario.encode", func() {
			var doc scenario.RunResult
			if doc, err = scenario.NewRunResult(spec, res, nil); err == nil {
				err = doc.Encode(io.Discard)
			}
		})
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
	}
	st, err := store.Open(filepath.Join(cfg.dir, "layer-store"), store.Options{})
	if err != nil {
		return err
	}
	keys := make([]string, len(bodies))
	for i, b := range bodies {
		sum := sha256.Sum256(append([]byte(fmt.Sprint(i)), b...))
		keys[i] = fmt.Sprintf("%x", sum)
		tr.time("store.put", func() { err = st.Put(keys[i], b) })
		if err != nil {
			return err
		}
	}
	for i := range bodies {
		var got []byte
		tr.time("store.get", func() { got, err = st.Get(keys[i]) })
		if err == nil && !bytes.Equal(got, bodies[i]) {
			err = errors.New("store returned different bytes")
		}
		s.rep.op(err)
	}
	return os.RemoveAll(st.Dir())
}

// tierSummary gives each tier's share and latency quantiles.
func tierSummary(outs []outcome) string {
	by := map[string][]float64{}
	for _, o := range outs {
		by[o.tier] = append(by[o.tier], ms(o.latency))
	}
	var parts []string
	for _, t := range tiers {
		parts = append(parts, fmt.Sprintf("%s %d p50 %.3f p99 %.3f ms", t, len(by[t]), quantile(by[t], 0.5), quantile(by[t], 0.99)))
	}
	return strings.Join(parts, "; ")
}
