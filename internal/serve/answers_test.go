package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wardrop/internal/scenario"
	"wardrop/internal/sweep"
)

// divergeDoc is a scenario whose run fails: Pigou at an update period of
// 1000 leaves the feasible set within a few RK4 phases.
const divergeDoc = `{"name":"pigou-diverges","topology":{"family":"pigou"},"policy":{"kind":"replicator"},"updatePeriod":1000,"maxPhases":20}`

// answer is everything a POST answers with, apart from its body: the status,
// the headers clients act on, the job the request left in /v1/jobs (nil when
// it registered none), and the cache counters it moved.
type answer struct {
	status      int
	cache       string
	contentType string
	// fingerprint reports whether X-Fingerprint carries the document's
	// fingerprint (false: the header is absent).
	fingerprint bool
	retryAfter  string
	job         *JobStatus // Kind, State, Error and Cached; its fingerprint is the document's
	hits        int64
	misses      int64
}

// fingerprintOf returns the fingerprint of a document parsed by parse.
func fingerprintOf[T interface{ Fingerprint() (string, error) }](parse func(io.Reader) (T, error)) func(string) (string, error) {
	return func(doc string) (string, error) {
		v, err := parse(strings.NewReader(doc))
		if err != nil {
			return "", err
		}
		return v.Fingerprint()
	}
}

// TestSubmissionAnswers pins, for every POST endpoint and mode, the answer
// to a miss, a repeat, a full queue, a draining server, a malformed body and
// an oversized one, plus a synchronous scenario whose run fails.
func TestSubmissionAnswers(t *testing.T) {
	const (
		ctJSON   = "application/json"
		ctNDJSON = "application/x-ndjson"
	)
	oversized := `{"name":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	type endpoint struct {
		path, doc   string
		fingerprint func(string) (string, error)
	}
	endpoints := map[string]endpoint{
		"scenario":     {"/v1/scenarios", pigouQuickDoc, fingerprintOf(scenario.Parse)},
		"scenario-job": {"/v1/scenarios?mode=job", pigouQuickDoc, fingerprintOf(scenario.Parse)},
		"task":         {"/v1/tasks", taskDoc, fingerprintOf(sweep.ParseTaskSpec)},
		"campaign":     {"/v1/campaigns", campaignDoc, fingerprintOf(sweep.ParseCampaign)},
	}
	// The failing run's error, as the library reports it.
	spec, err := scenario.Parse(strings.NewReader(divergeDoc))
	if err != nil {
		t.Fatal(err)
	}
	_, _, runErr := spec.Run(context.Background(), nil)
	if runErr == nil {
		t.Fatal("divergeDoc ran cleanly")
	}
	job := func(kind string, state JobState, cached bool, errMsg string) *JobStatus {
		return &JobStatus{Kind: kind, State: state, Cached: cached, Error: errMsg}
	}
	full := answer{status: http.StatusServiceUnavailable, contentType: ctJSON, fingerprint: true, retryAfter: "1"}
	draining := answer{status: http.StatusServiceUnavailable, contentType: ctJSON, fingerprint: true}
	malformed := answer{status: http.StatusBadRequest, contentType: ctJSON}
	tooLarge := answer{status: http.StatusRequestEntityTooLarge, contentType: ctJSON}
	withJob := func(a answer, j *JobStatus) answer { a.job = j; return a }

	cases := []struct {
		endpoint, situation string
		doc                 string // default: the endpoint's document
		want                answer
	}{
		{"scenario", "miss", "", answer{status: http.StatusOK, cache: TierMiss, contentType: ctJSON, fingerprint: true,
			job: job(kindScenario, JobDone, false, ""), misses: 1}},
		{"scenario", "repeat", "", answer{status: http.StatusOK, cache: TierHit, contentType: ctJSON, fingerprint: true, hits: 1}},
		{"scenario", "full", "", withJob(full, job(kindScenario, JobFailed, false, ErrQueueFull.Error()))},
		{"scenario", "draining", "", withJob(draining, job(kindScenario, JobFailed, false, ErrDraining.Error()))},
		{"scenario", "malformed", "{not json", malformed},
		{"scenario", "oversized", oversized, tooLarge},
		{"scenario", "run fails", divergeDoc, answer{status: http.StatusUnprocessableEntity, contentType: ctJSON, fingerprint: true,
			job: job(kindScenario, JobFailed, false, runErr.Error()), misses: 1}},

		{"scenario-job", "miss", "", answer{status: http.StatusAccepted, contentType: ctJSON, fingerprint: true,
			job: job(kindScenario, JobDone, false, ""), misses: 1}},
		{"scenario-job", "repeat", "", answer{status: http.StatusOK, contentType: ctJSON, fingerprint: true,
			job: job(kindScenario, JobDone, true, ""), hits: 1}},
		{"scenario-job", "full", "", withJob(full, job(kindScenario, JobFailed, false, ErrQueueFull.Error()))},
		{"scenario-job", "draining", "", withJob(draining, job(kindScenario, JobFailed, false, ErrDraining.Error()))},
		{"scenario-job", "malformed", "{not json", malformed},
		{"scenario-job", "oversized", oversized, tooLarge},

		{"task", "miss", "", answer{status: http.StatusOK, cache: TierMiss, contentType: ctNDJSON, fingerprint: true,
			job: job(kindTask, JobDone, false, ""), misses: 1}},
		{"task", "repeat", "", answer{status: http.StatusOK, cache: TierHit, contentType: ctNDJSON, fingerprint: true, hits: 1}},
		{"task", "full", "", withJob(full, job(kindTask, JobFailed, false, ErrQueueFull.Error()))},
		{"task", "draining", "", withJob(draining, job(kindTask, JobFailed, false, ErrDraining.Error()))},
		{"task", "malformed", "{not json", malformed},
		{"task", "oversized", oversized, tooLarge},

		{"campaign", "miss", "", answer{status: http.StatusAccepted, contentType: ctJSON, fingerprint: true,
			job: job(kindCampaign, JobDone, false, ""), misses: 1}},
		{"campaign", "repeat", "", answer{status: http.StatusOK, contentType: ctJSON, fingerprint: true,
			job: job(kindCampaign, JobDone, true, ""), hits: 1}},
		{"campaign", "full", "", withJob(full, job(kindCampaign, JobFailed, false, ErrQueueFull.Error()))},
		{"campaign", "draining", "", withJob(draining, job(kindCampaign, JobFailed, false, ErrDraining.Error()))},
		{"campaign", "malformed", "{not json", malformed},
		{"campaign", "oversized", oversized, tooLarge},
	}
	for _, tc := range cases {
		ep := endpoints[tc.endpoint]
		doc := tc.doc
		if doc == "" {
			doc = ep.doc
		}
		t.Run(tc.endpoint+"/"+tc.situation, func(t *testing.T) {
			cfg := Config{Workers: 1, QueueDepth: 1}
			var held <-chan struct{}
			if tc.situation == "full" {
				cfg.jobStarted, held = holdFirstJob()
			}
			s, _ := newTestServer(t, cfg)
			// Requests go straight to ServeHTTP: an oversized body over a
			// real connection costs the server's half-second close delay.
			call := func(method, path, body string) (*http.Response, []byte) {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
				return rec.Result(), rec.Body.Bytes()
			}
			post := func(path, doc string) (*http.Response, []byte) {
				resp, body := call(http.MethodPost, path, doc)
				if resp.StatusCode == http.StatusAccepted {
					// Let an asynchronous job finish, so its state is final.
					var st JobStatus
					if err := json.Unmarshal(body, &st); err != nil {
						t.Fatal(err)
					}
					<-s.jobByID(st.ID).done
				}
				return resp, body
			}
			listJobs := func() (jobs []JobStatus) {
				_, body := call(http.MethodGet, "/v1/jobs", "")
				if err := json.Unmarshal(body, &jobs); err != nil {
					t.Fatal(err)
				}
				return jobs
			}
			switch tc.situation {
			case "repeat":
				post(ep.path, doc)
			case "full":
				// The first job holds the only worker, the second fills
				// the one queue slot.
				call(http.MethodPost, "/v1/scenarios?mode=job", strings.Replace(pigouQuickDoc, "pigou-quick", "holder", 1))
				<-held
				call(http.MethodPost, "/v1/scenarios?mode=job", strings.Replace(pigouQuickDoc, "pigou-quick", "filler", 1))
			case "draining":
				if err := s.Close(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			before, jobsBefore := s.MetricsSnapshot(), listJobs()

			resp, body := post(ep.path, doc)

			after, jobs := s.MetricsSnapshot(), listJobs()
			got := answer{
				status:      resp.StatusCode,
				cache:       resp.Header.Get("X-Cache"),
				contentType: resp.Header.Get("Content-Type"),
				retryAfter:  resp.Header.Get("Retry-After"),
				hits:        after.CacheHits - before.CacheHits,
				misses:      after.CacheMisses - before.CacheMisses,
			}
			var fp string
			if tc.want.fingerprint {
				var err error
				if fp, err = ep.fingerprint(doc); err != nil {
					t.Fatal(err)
				}
			}
			switch h := resp.Header.Get("X-Fingerprint"); {
			case h == "":
			case h == fp:
				got.fingerprint = true
			default:
				t.Fatalf("X-Fingerprint = %q, want %q", h, fp)
			}
			switch len(jobs) - len(jobsBefore) {
			case 0:
			case 1:
				j := jobs[len(jobs)-1]
				if j.Fingerprint != fp {
					t.Fatalf("job fingerprint = %q, want %q", j.Fingerprint, fp)
				}
				got.job = &JobStatus{Kind: j.Kind, State: j.State, Cached: j.Cached, Error: j.Error}
			default:
				t.Fatalf("the request registered %d jobs", len(jobs)-len(jobsBefore))
			}
			want := tc.want
			if (got.job == nil) != (want.job == nil) || got.job != nil && *got.job != *want.job {
				t.Errorf("job = %+v, want %+v", got.job, want.job)
			}
			got.job, want.job = nil, nil
			if got != want {
				t.Errorf("answer = %+v, want %+v (body %.200s)", got, want, body)
			}

			if tc.situation == "full" {
				if after.QueueCapacity != 1 || after.QueueHighWater != 1 {
					t.Errorf("queue capacity/high water = %d/%d, want 1/1", after.QueueCapacity, after.QueueHighWater)
				}
				// Release the held worker now rather than at the cleanup's
				// deadline.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				_ = s.Close(ctx)
			}
		})
	}
}
