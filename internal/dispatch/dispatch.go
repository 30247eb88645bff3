// Package dispatch is the campaign coordinator for distributed sweeps: it
// expands a campaign and groups its tasks into the units a local sweep.Run
// schedules (sweep.Units), shards the units across a fleet of wardserve
// workers by consistent hashing on task fingerprint (so identical cells keep
// landing on the same node and its caches stay hot), executes them over
// POST /v1/tasks, and merges the returned records through the local
// collector (sweep.Collect) into the same RunResult a local run produces.
// Nodes that stop answering are declared dead and their tasks re-queued onto
// the survivors; idle nodes steal queued work from loaded ones; transient
// queue-full rejections are retried with backoff honouring Retry-After.
// Because remote workers return canonical records and the coordinator
// rebinds the bookkeeping identity per task, the merged artifacts are
// byte-identical to a local run — including under mid-campaign worker
// failure.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"wardrop/internal/obs"
	"wardrop/internal/sweep"
)

// EventKind labels a coordinator lifecycle event.
type EventKind string

// Coordinator events: a worker declared dead (its queued tasks re-homed), a
// transient rejection retried with backoff, a steal by an idle worker.
const (
	EventNodeDead EventKind = "node-dead"
	EventRetry    EventKind = "retry"
	EventSteal    EventKind = "steal"
)

// Event is one coordinator lifecycle observation, for logging and tests.
type Event struct {
	Kind EventKind
	// Node is the worker URL the event concerns; From is the steal victim.
	Node string
	From string
	// Tasks counts the task units a node-dead event re-homed.
	Tasks int
	// Attempt is the retry ordinal of a retry event.
	Attempt int
	Err     error
}

const (
	// maxAttempts bounds the attempts per task across retries and node
	// failures; a task out of attempts gets an error record, the campaign
	// keeps going.
	maxAttempts = 3
	// baseBackoff is the first retry's backoff, doubled per attempt; a
	// server Retry-After wins when longer.
	baseBackoff = 250 * time.Millisecond
)

// Options configures a distributed run. The zero value is usable.
type Options struct {
	// Client performs the HTTP requests (default: a fresh client with no
	// timeout — task duration is unbounded and cancellation comes from ctx).
	Client *http.Client
	// Inflight is the number of concurrent tasks per worker (default 4).
	Inflight int
	// Results, Progress: as sweep.Options — a streaming canonical JSONL
	// sink (completion order) and the per-record progress callback.
	Results  io.Writer
	Progress func(done, total int, rec sweep.Record)
	// Events, if non-nil, observes coordinator lifecycle events. Called from
	// worker goroutines; must be safe for concurrent use.
	Events func(Event)
	// Metrics, when non-nil, receives the coordinator's instruments:
	// per-node in-flight gauges, retry/death/re-home/steal counters, and
	// queue-wait and transport histograms. Share the registry with a serve
	// or sweep layer to expose everything through one endpoint.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Inflight <= 0 {
		o.Inflight = 4
	}
	return o
}

// unit is one sweep unit on its way through the fleet: the encoded spec of
// its first task, submitted (at most a few times) to remote workers, whose
// one remote result becomes the record of every task of the unit.
type unit struct {
	sweep.Unit
	body     []byte
	attempts int
	// enqueuedAt is when the unit last landed on a node queue; the
	// dequeue-side delta is the queue-wait metric.
	enqueuedAt time.Time
}

// Run executes the campaign across the worker fleet and returns the same
// RunResult a local sweep.Run produces: every expanded task gets a record
// (duplicates cloned from their representative, identity rebound), sorted by
// task ID. Task-level failures come back inside records; the returned error
// is non-nil only for invalid campaigns, cancellation, a failing Results
// sink, or a fleet with no surviving workers. On cancellation the records
// completed so far are returned with ctx.Err(), and the in-flight remote
// jobs are cancelled too (the request contexts propagate).
func Run(ctx context.Context, camp *sweep.Campaign, workers []string, opts Options) (*sweep.RunResult, error) {
	if len(workers) == 0 {
		return nil, errors.New("dispatch: no workers")
	}
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = strings.TrimRight(w, "/")
	}
	tasks, err := camp.Expand()
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	sunits, err := sweep.Units(tasks)
	if err != nil {
		return nil, err
	}
	units := make([]*unit, len(sunits))
	for i, su := range sunits {
		body, err := json.Marshal(&su.Tasks[0].TaskSpec)
		if err != nil {
			return nil, fmt.Errorf("dispatch: task %d: %w", su.Tasks[0].ID, err)
		}
		units[i] = &unit{Unit: su, body: body}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	co := newCoordinator(ctx, urls, units, opts)
	co.start()

	records, sinkErr := sweep.Collect(co.recCh, len(tasks), opts.Results, opts.Progress, cancel)
	result := &sweep.RunResult{Campaign: camp, Tasks: tasks, Records: records}
	if sinkErr != nil {
		return nil, sinkErr
	}
	if err := ctx.Err(); err != nil {
		return result, err
	}
	if err := co.terminalErr(); err != nil {
		return result, err
	}
	return result, nil
}

// coordinator is the shared scheduling state: per-node queues under one
// mutex+cond, the liveness view, and the record channel the collector
// drains. Runners (Inflight goroutines per node) pull from their own queue,
// steal from the longest other queue when idle, and exit when the work or
// the fleet is exhausted.
type coordinator struct {
	ctx     context.Context
	workers []string
	ring    *ring
	opts    Options
	met     *metrics
	recCh   chan sweep.Record

	mu        sync.Mutex
	cond      *sync.Cond
	queues    [][]*unit
	alive     []bool
	aliveN    int
	pending   int // units not yet completed (queued or in flight)
	cancelled bool
	err       error // terminal: every worker dead
}

func newCoordinator(ctx context.Context, workers []string, units []*unit, opts Options) *coordinator {
	co := &coordinator{
		ctx:     ctx,
		workers: workers,
		ring:    newRing(workers),
		opts:    opts,
		met:     newDispatchMetrics(opts.Metrics, workers),
		recCh:   make(chan sweep.Record, 2*len(workers)*opts.Inflight),
		queues:  make([][]*unit, len(workers)),
		alive:   make([]bool, len(workers)),
		aliveN:  len(workers),
		pending: len(units),
	}
	co.cond = sync.NewCond(&co.mu)
	for i := range co.alive {
		co.alive[i] = true
	}
	now := time.Now()
	for _, u := range units {
		u.enqueuedAt = now
		home := co.ring.owner(u.Fingerprint, co.alive)
		co.queues[home] = append(co.queues[home], u)
	}
	return co
}

func (co *coordinator) start() {
	var wg sync.WaitGroup
	for node := range co.workers {
		for k := 0; k < co.opts.Inflight; k++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				co.runner(node)
			}(node)
		}
	}
	// Cancellation wakes every waiting runner so the pool drains promptly
	// even when no task completion would otherwise signal the cond.
	go func() {
		<-co.ctx.Done()
		co.mu.Lock()
		co.cancelled = true
		co.cond.Broadcast()
		co.mu.Unlock()
	}()
	go func() {
		wg.Wait()
		close(co.recCh)
	}()
}

func (co *coordinator) terminalErr() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.err
}

func (co *coordinator) event(ev Event) {
	if co.opts.Events != nil {
		co.opts.Events(ev)
	}
}

// next blocks until there is a unit for this node to run — its own queue
// first, then a steal from the longest other alive queue — or until the run
// is over for it (done, cancelled, fleet dead, or this node declared dead).
func (co *coordinator) next(node int) *unit {
	co.mu.Lock()
	for {
		if co.cancelled || co.err != nil || co.pending == 0 || !co.alive[node] {
			co.mu.Unlock()
			return nil
		}
		if q := co.queues[node]; len(q) > 0 {
			u := q[0]
			co.queues[node] = q[1:]
			co.mu.Unlock()
			co.met.queueWaitMs.Observe(ms(time.Since(u.enqueuedAt)))
			return u
		}
		if victim := co.longestQueue(node); victim >= 0 {
			q := co.queues[victim]
			u := q[len(q)-1] // steal from the tail: the coldest queued work
			co.queues[victim] = q[:len(q)-1]
			co.mu.Unlock()
			co.met.steals.Inc()
			co.met.queueWaitMs.Observe(ms(time.Since(u.enqueuedAt)))
			co.event(Event{Kind: EventSteal, Node: co.workers[node], From: co.workers[victim]})
			return u
		}
		co.cond.Wait()
	}
}

// longestQueue returns the alive node (≠ self) with the longest non-empty
// queue, or -1. Callers hold co.mu.
func (co *coordinator) longestQueue(self int) int {
	best, bestLen := -1, 0
	for i, q := range co.queues {
		if i != self && co.alive[i] && len(q) > bestLen {
			best, bestLen = i, len(q)
		}
	}
	return best
}

// requeue re-homes a unit onto the surviving fleet (after a node death or a
// retry whose node died while backing off). With no survivors the unit is
// dropped: the coordinator error is already set and the run is over.
func (co *coordinator) requeue(u *unit) {
	co.mu.Lock()
	defer co.mu.Unlock()
	home := co.ring.owner(u.Fingerprint, co.alive)
	if home < 0 {
		return
	}
	u.enqueuedAt = time.Now()
	co.met.rehomed.Inc()
	co.queues[home] = append(co.queues[home], u)
	co.cond.Broadcast()
}

// markDead declares a node dead and re-homes its queue onto the survivors.
// Idempotent; the last death sets the coordinator's terminal error.
func (co *coordinator) markDead(node int, cause error) {
	co.mu.Lock()
	if !co.alive[node] {
		co.mu.Unlock()
		return
	}
	co.alive[node] = false
	co.aliveN--
	orphans := co.queues[node]
	co.queues[node] = nil
	moved := len(orphans)
	if co.aliveN == 0 {
		co.err = fmt.Errorf("dispatch: all workers failed (last: %s): %w", co.workers[node], cause)
	} else {
		now := time.Now()
		for _, u := range orphans {
			u.enqueuedAt = now
			home := co.ring.owner(u.Fingerprint, co.alive)
			co.queues[home] = append(co.queues[home], u)
		}
	}
	co.cond.Broadcast()
	co.mu.Unlock()
	co.met.deaths.Inc()
	co.met.rehomed.Add(int64(moved))
	co.event(Event{Kind: EventNodeDead, Node: co.workers[node], Tasks: moved, Err: cause})
}

// complete hands the remote record to the collector once per task of the
// unit, with the task's ID and SeedIndex bound (the spec carries neither).
func (co *coordinator) complete(u *unit, rec sweep.Record) {
	u.Send(co.recCh, rec)
	co.mu.Lock()
	co.pending--
	if co.pending == 0 {
		co.cond.Broadcast()
	}
	co.mu.Unlock()
}

func (co *coordinator) runner(node int) {
	for {
		u := co.next(node)
		if u == nil {
			return
		}
		co.met.inflight[node].Add(1)
		co.run(node, u)
		co.met.inflight[node].Add(-1)
	}
}

// attempt verdicts.
type verdict int

const (
	vOK verdict = iota
	vCancelled
	vRetry    // transient rejection (queue full): back off, same node
	vNodeDead // the node is gone or answering garbage
	vTaskFail // deterministic rejection: record the error, do not retry
)

// run drives one unit to completion on this node: attempt, classify, retry
// with backoff, fail over on node death, give up into an error record when
// out of attempts.
func (co *coordinator) run(node int, u *unit) {
	for {
		rec, retryAfter, verd, err := co.attempt(node, u)
		switch verd {
		case vOK:
			co.complete(u, rec)
			return
		case vCancelled:
			return
		case vTaskFail:
			co.complete(u, u.Tasks[0].ErrorRecord(err))
			return
		case vRetry:
			u.attempts++
			if u.attempts >= maxAttempts {
				co.complete(u, u.Tasks[0].ErrorRecord(err))
				return
			}
			co.met.retries.Inc()
			co.event(Event{Kind: EventRetry, Node: co.workers[node], Attempt: u.attempts, Err: err})
			if !co.sleep(max(baseBackoff<<(u.attempts-1), retryAfter)) {
				return
			}
			co.mu.Lock()
			stillAlive := co.alive[node]
			co.mu.Unlock()
			if !stillAlive {
				co.requeue(u)
				return
			}
		case vNodeDead:
			co.markDead(node, err)
			u.attempts++
			if u.attempts >= maxAttempts {
				co.complete(u, u.Tasks[0].ErrorRecord(err))
				return
			}
			co.requeue(u)
			return
		}
	}
}

// sleep waits d, honouring cancellation; reports whether the wait ran full.
func (co *coordinator) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-co.ctx.Done():
		return false
	}
}

// attempt submits the unit's spec to the node once and classifies the
// outcome. A 200 is the task's record — possibly one carrying a task-level
// error, which is a completed outcome, not a failure. A 503 with Retry-After
// is the node shedding load (retry here, later); a 400 or 413 rejects the
// spec itself (recorded as the task's error); any other failure mode —
// transport errors, draining, 5xx, an unparseable body — condemns the node.
func (co *coordinator) attempt(node int, u *unit) (rec sweep.Record, retryAfter time.Duration, verd verdict, err error) {
	req, err := http.NewRequestWithContext(co.ctx, http.MethodPost, co.workers[node]+"/v1/tasks", bytes.NewReader(u.body))
	if err != nil {
		return rec, 0, vTaskFail, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := co.opts.Client.Do(req)
	if err != nil {
		co.met.transportMs.Observe(ms(time.Since(start)))
		if co.ctx.Err() != nil {
			return rec, 0, vCancelled, co.ctx.Err()
		}
		return rec, 0, vNodeDead, err
	}
	body, readErr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	co.met.transportMs.Observe(ms(time.Since(start)))
	if readErr != nil {
		if co.ctx.Err() != nil {
			return rec, 0, vCancelled, co.ctx.Err()
		}
		return rec, 0, vNodeDead, readErr
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if err := json.Unmarshal(body, &rec); err != nil {
			return rec, 0, vNodeDead, fmt.Errorf("%s: bad record: %w", co.workers[node], err)
		}
		// Wall time is the coordinator's measurement: request round-trip,
		// queue wait included — exactly the straggler signal a fleet
		// operator wants. The canonical artifacts strip it either way.
		rec.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		return rec, 0, vOK, nil
	case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return rec, retryAfter, vRetry, fmt.Errorf("%s: %s", co.workers[node], strings.TrimSpace(string(body)))
	case resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusRequestEntityTooLarge:
		// The node refused this spec, not all work: recorded, not retried.
		return rec, 0, vTaskFail, fmt.Errorf("%s: %s", co.workers[node], strings.TrimSpace(string(body)))
	default:
		return rec, 0, vNodeDead, fmt.Errorf("%s: status %d: %s", co.workers[node], resp.StatusCode, strings.TrimSpace(string(body)))
	}
}
