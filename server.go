package wardrop

import (
	"io"

	"wardrop/internal/canon"
	"wardrop/internal/scenario"
	"wardrop/internal/serve"
	"wardrop/internal/timeline"
)

// Serving layer ---------------------------------------------------------------
//
// NewServer turns the library into a long-lived HTTP/JSON simulation
// service: POSTed scenario and campaign specs are fingerprinted, memoized in
// an LRU result cache, and scheduled on a bounded worker pool; campaigns
// stream NDJSON records from /v1/jobs/{id}/stream. See cmd/wardserve for the
// standalone binary and the README "Serving" section for the HTTP surface.

// Server is the simulation service: an http.Handler plus the worker pool
// behind it. Serve it with any http.Server; stop it with Close.
type Server = serve.Server

// ServerConfig parameterises a Server (pool width, queue depth, cache size,
// store tier, metrics registry); the zero value uses serving defaults.
type ServerConfig = serve.Config

// ServerMetrics is the JSON body of the service's GET /metrics endpoint.
type ServerMetrics = serve.Metrics

// ServerJobStatus is the JSON view of one service job.
type ServerJobStatus = serve.JobStatus

// NewServer builds a simulation server and starts its worker pool. The
// /v1/catalog endpoint serves this package's Catalog() listing, every
// user-registered component included.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }

// Canonical specs and fingerprints --------------------------------------------

// CanonicalSpec renders v — a raw JSON document ([]byte / json.RawMessage)
// or any marshallable spec value (ScenarioSpec, Campaign, …) — in canonical
// JSON form: object keys sorted, whitespace stripped. Two spellings of the
// same document canonicalise identically.
func CanonicalSpec(v any) ([]byte, error) { return canon.Canonical(v) }

// SpecFingerprint is the canonical-JSON SHA-256 of v — the identity the
// serving layer keys its result cache on and the sweep engine dedups tasks
// by. ScenarioSpec and Campaign also expose it as a Fingerprint method.
func SpecFingerprint(v any) (string, error) { return canon.Fingerprint(v) }

// Scenario results ------------------------------------------------------------

// ScenarioRunResult is the canonical JSON result document of one scenario
// run — the shape shared by `wardsim -scenario -json` and the server's
// POST /v1/scenarios response (byte-identical for the same spec).
type ScenarioRunResult = scenario.RunResult

// TimelineEvent is one replayed timeline event of a time-varying scenario
// run — ScenarioSpec.Run returns the replayed list, and the result document
// and the server's NDJSON streams record them.
type TimelineEvent = timeline.AppliedEvent

// NewRunResult assembles the canonical result document for a completed run
// of the spec; events is the replayed-event list ScenarioSpec.Run returned
// (nil for stationary runs).
func NewRunResult(s *ScenarioSpec, res *Result, events []TimelineEvent) (ScenarioRunResult, error) {
	return scenario.NewRunResult(s, res, events)
}

// EncodeRunResult writes the canonical result document for a completed run
// of the spec to w as one JSON line.
func EncodeRunResult(w io.Writer, s *ScenarioSpec, res *Result, events []TimelineEvent) error {
	doc, err := scenario.NewRunResult(s, res, events)
	if err != nil {
		return err
	}
	return doc.Encode(w)
}
