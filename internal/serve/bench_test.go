package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkCachedTask posts one cached task to ServeHTTP: the path a warm
// fleet node answers most /v1/tasks requests on. Its allocations per
// request are the cost the cache tiers add to a hit.
func BenchmarkCachedTask(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tasks", strings.NewReader(taskDoc)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	for b.Loop() {
		if rec := post(); rec.Header().Get("X-Cache") != TierHit {
			b.Fatalf("X-Cache = %q, want %s", rec.Header().Get("X-Cache"), TierHit)
		}
	}
}
