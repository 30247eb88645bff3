package wardrop

import (
	"context"
	"io"

	"wardrop/internal/dispatch"
	"wardrop/internal/store"
	"wardrop/internal/sweep"
)

// Distributed sweeps ----------------------------------------------------------
//
// A fleet of wardserve workers plus the dispatch coordinator turn a campaign
// into a sharded run: tasks are deduped, consistent-hashed onto workers by
// fingerprint (keeping each node's caches hot), executed over POST /v1/tasks,
// and merged back into the same SweepResult a local RunSweep produces —
// byte-identical canonical artifacts, including under mid-run worker failure.
// Pointing the workers at one shared ResultStore directory makes the fleet's
// results durable across restarts and repeat campaigns free.

// ResultStore is the durable content-addressed result store: documents keyed
// by canonical fingerprint in a sharded directory layout, written atomically,
// verified (and quarantined) by re-hash on read, evicted least-recently-used
// under a byte budget. Safe for concurrent use, including by several
// processes sharing one directory.
type ResultStore = store.Store

// ResultStoreStats is a store census (object count, byte total, budget).
type ResultStoreStats = store.Stats

// OpenResultStore opens — creating if necessary — a result store rooted at
// dir. maxBytes is the eviction budget (0 = unbounded). Pass the store to a
// ServerConfig to give a server a durable second cache tier.
func OpenResultStore(dir string, maxBytes int64) (*ResultStore, error) {
	return store.Open(dir, store.Options{MaxBytes: maxBytes})
}

// SweepTaskSpec is the self-contained document of one sweep task — the wire
// unit of distributed sweeps (the body of the server's POST /v1/tasks). Every
// SweepTask carries its spec, campaign run-shape scalars included.
type SweepTaskSpec = sweep.TaskSpec

// DistSweepOptions configures a distributed sweep (HTTP client, per-node
// inflight, streaming sink, progress and event callbacks).
type DistSweepOptions = dispatch.Options

// DistSweepEvent is one coordinator lifecycle observation (a node declared
// dead, a retry, a steal).
type DistSweepEvent = dispatch.Event

// RunDistSweep executes the campaign across a fleet of wardserve workers and
// returns the same SweepResult a local RunSweep produces: every expanded
// task gets a record, sorted by task ID. Dead nodes are detected and their
// tasks re-queued onto survivors; cancellation propagates to in-flight
// remote jobs.
func RunDistSweep(ctx context.Context, c *Campaign, workers []string, opts DistSweepOptions) (*SweepResult, error) {
	return dispatch.Run(ctx, c, workers, opts)
}

// CanonicalSweepRecord returns the record with its nondeterministic
// annotations (wall time) cleared — the byte-comparable form.
func CanonicalSweepRecord(rec SweepRecord) SweepRecord { return sweep.CanonicalRecord(rec) }

// EncodeSweepRecords writes records as the canonical JSONL stream: one
// canonical record per line, ordered by task ID. Two runs of the same
// campaign — local or distributed, with or without worker failures — produce
// byte-identical output.
func EncodeSweepRecords(w io.Writer, records []SweepRecord) error {
	return sweep.EncodeRecords(w, records)
}
