package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
)

// CanonicalRecord returns rec with its nondeterministic annotations cleared:
// the wall-clock cost is measurement, not result, so it is dropped (the
// wallMs field is omitted from the JSON encoding at zero). Everything that
// remains is a pure function of the task's run identity, which is what makes
// canonical record streams byte-comparable across runs, machines and
// local-vs-distributed execution.
func CanonicalRecord(rec Record) Record {
	rec.WallMS = 0
	return rec
}

// EncodeRecords writes records as the canonical JSONL stream: one canonical
// record per line, ordered by task ID. Two runs of the same campaign — on
// one process or sharded across a fleet, with or without mid-run worker
// failures — produce byte-identical output.
func EncodeRecords(w io.Writer, records []Record) error {
	sorted := append([]Record(nil), records...)
	sortRecords(sorted)
	enc := json.NewEncoder(w)
	for _, rec := range sorted {
		if err := enc.Encode(CanonicalRecord(rec)); err != nil {
			return err
		}
	}
	return nil
}

// Collect drains recs until it closes, the one collector of local and
// distributed runs: it streams each record's canonical line to results (when
// non-nil), in arrival order, calls progress (when non-nil) with the running
// count, total and the full record, and returns the records sorted by task
// ID. A failing results writer ends the streaming and calls cancel, so the
// producers stop early; the channel is still drained, so no producer blocks,
// and the error comes back with the records.
func Collect(recs <-chan Record, total int, results io.Writer, progress func(done, total int, rec Record), cancel context.CancelFunc) ([]Record, error) {
	records := make([]Record, 0, total)
	var enc *json.Encoder
	if results != nil {
		enc = json.NewEncoder(results)
	}
	var sinkErr error
	for rec := range recs {
		if enc != nil && sinkErr == nil {
			if err := enc.Encode(CanonicalRecord(rec)); err != nil {
				sinkErr = fmt.Errorf("sweep: results sink: %w", err)
				cancel()
			}
		}
		records = append(records, rec)
		if progress != nil {
			progress(len(records), total, rec)
		}
	}
	sortRecords(records)
	return records, sinkErr
}
