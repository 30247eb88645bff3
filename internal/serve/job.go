package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"time"

	"wardrop/internal/flow"
	"wardrop/internal/obs"
	"wardrop/internal/scenario"
	"wardrop/internal/sweep"
	"wardrop/internal/timeline"
)

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle: queued → running → done | failed. Cached submissions are
// born done.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job kinds.
const (
	kindScenario = "scenario"
	kindCampaign = "campaign"
	kindTask     = "task"
)

// JobStatus is the JSON view of one job — the body of GET /v1/jobs/{id} and
// the 202 response of an asynchronous submission.
type JobStatus struct {
	ID          string    `json:"id"`
	Kind        string    `json:"kind"`
	Fingerprint string    `json:"fingerprint"`
	State       JobState  `json:"state"`
	Error       string    `json:"error,omitempty"`
	Cached      bool      `json:"cached,omitempty"`
	Created     time.Time `json:"created"`
	// Lines counts the NDJSON lines emitted so far (see Stream).
	Lines int `json:"lines"`
	// Stream is the job's NDJSON stream path.
	Stream string `json:"stream"`
}

// streamLine is one NDJSON line of a job stream: a trajectory sample
// (scenario jobs), a replayed timeline event (time-varying scenario jobs),
// a task record (campaign jobs), the final result document, a terminal
// error, or a truncation marker (the attacher missed lines that were
// trimmed from the bounded replay buffer). Exactly one field is set per
// line.
type streamLine struct {
	Sample    *scenario.TrajectorySample `json:"sample,omitempty"`
	Event     *timeline.AppliedEvent     `json:"event,omitempty"`
	Record    *sweep.Record              `json:"record,omitempty"`
	Span      *obs.Span                  `json:"span,omitempty"`
	Result    json.RawMessage            `json:"result,omitempty"`
	Error     string                     `json:"error,omitempty"`
	Truncated bool                       `json:"truncated,omitempty"`
}

// truncatedLine is the marker emitted to stream attachers whose replay
// window was trimmed.
var truncatedLine = []byte("{\"truncated\":true}\n")

// job is one scheduled run: the function that runs it, its cancellation
// scope, and the append-only NDJSON line buffer streams replay and follow.
type job struct {
	id          string
	kind        string
	fingerprint string
	// run executes the job on a worker's workspace and returns its result
	// document (nil for jobs born done).
	run    func(*job, *flow.Workspace) ([]byte, error)
	ctx    context.Context
	cancel context.CancelFunc
	// created is when the job was built; enqueued is when submit placed it
	// on the queue (zero for jobs born done).
	created  time.Time
	enqueued time.Time

	mu     sync.Mutex
	state  JobState
	errMsg string
	cached bool
	// lines is the bounded replay buffer; base is the absolute stream index
	// of lines[0] (> 0 once old lines were trimmed to honour maxBytes) and
	// bufBytes the buffer's current size.
	lines    [][]byte
	base     int
	bufBytes int
	maxBytes int
	// notify is closed and replaced on every append/state change, waking
	// followers; done is closed exactly once on the terminal transition.
	notify chan struct{}
	done   chan struct{}
	// result is the final result document (one JSON line) of a done job.
	result []byte
}

// newJob builds a job whose stream retains at most maxBytes of replay
// buffer (<= 0: unbounded).
func newJob(kind, fingerprint string, parent context.Context, maxBytes int) *job {
	ctx, cancel := context.WithCancel(parent)
	return &job{
		kind:        kind,
		fingerprint: fingerprint,
		ctx:         ctx,
		cancel:      cancel,
		created:     time.Now(),
		state:       JobQueued,
		maxBytes:    maxBytes,
		notify:      make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// wakeLocked signals followers; callers hold j.mu.
func (j *job) wakeLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobQueued {
		j.state = JobRunning
		j.wakeLocked()
	}
}

// appendRawLocked appends one finished NDJSON line and trims the replay
// buffer back under its byte budget (always keeping the newest line, so the
// terminal result survives any budget). Callers hold j.mu.
func (j *job) appendRawLocked(b []byte) {
	j.lines = append(j.lines, b)
	j.bufBytes += len(b)
	for j.maxBytes > 0 && j.bufBytes > j.maxBytes && len(j.lines) > 1 {
		j.bufBytes -= len(j.lines[0])
		j.lines[0] = nil
		j.lines = j.lines[1:]
		j.base++
	}
}

// appendLine marshals v and appends it to the stream buffer. Marshal
// failures are impossible for the line shapes the server emits; they are
// dropped rather than poisoning the stream.
func (j *job) appendLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendRawLocked(append(b, '\n'))
	j.wakeLocked()
}

// complete transitions to done with the final result document (one JSON
// line, trailing newline included), appending it to the stream wrapped as a
// result line. cached marks results replayed from the LRU cache.
func (j *job) complete(result []byte, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return
	}
	j.result = result
	j.cached = cached
	var line bytes.Buffer
	line.Grow(len(result) + 16)
	line.WriteString(`{"result":`)
	line.Write(bytes.TrimRight(result, "\n"))
	line.WriteString("}\n")
	j.appendRawLocked(line.Bytes())
	j.state = JobDone
	j.wakeLocked()
	close(j.done)
}

// fail transitions to failed, appending a terminal error line.
func (j *job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return
	}
	j.errMsg = err.Error()
	if b, merr := json.Marshal(streamLine{Error: j.errMsg}); merr == nil {
		j.appendRawLocked(append(b, '\n'))
	}
	j.state = JobFailed
	j.wakeLocked()
	close(j.done)
}

func (j *job) terminalLocked() bool {
	return j.state == JobDone || j.state == JobFailed
}

// resultBytes returns the final result document of a done job.
func (j *job) resultBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		Kind:        j.kind,
		Fingerprint: j.fingerprint,
		State:       j.state,
		Error:       j.errMsg,
		Cached:      j.cached,
		Created:     j.created,
		Lines:       j.base + len(j.lines),
		Stream:      "/v1/jobs/" + j.id + "/stream",
	}
}

// follow returns the buffered lines at absolute stream index from onward,
// the next index, the channel to wait on for more, whether from fell below
// the trimmed replay window (the caller owes the client a truncation
// marker), and whether the job is terminal (no further lines will ever
// come — decided under the same lock as the line snapshot, so a terminal
// report with all lines consumed is final).
func (j *job) follow(from int) (lines [][]byte, next int, notify <-chan struct{}, truncated, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < j.base {
		truncated = true
		from = j.base
	}
	end := j.base + len(j.lines)
	if from > end {
		from = end
	}
	// Copied under the lock: a live sub-slice would alias backing-array
	// slots the trim loop concurrently nils out.
	lines = make([][]byte, end-from)
	copy(lines, j.lines[from-j.base:])
	return lines, end, j.notify, truncated, j.terminalLocked()
}
