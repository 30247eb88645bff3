package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"wardrop/internal/dynamics"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/obs"
	"wardrop/internal/policy"
	"wardrop/internal/solver"
	"wardrop/internal/timeline"
)

// Record is one task's outcome — one JSONL line in the streaming result file.
// Exactly one record is emitted per completed task (including per-task
// failures), in completion order; tasks aborted by context cancellation get
// no record, so after an interrupted run len(records) < len(tasks). Records
// carry the task ID so any downstream consumer can re-sort or re-join.
type Record struct {
	// ID is the task ID from the deterministic expansion.
	ID int `json:"id"`
	// Topology, Policy, Period are the task's cell labels.
	Topology string `json:"topology"`
	Policy   string `json:"policy"`
	Period   string `json:"period"`
	// T is the resolved bulletin-board period (the safe period when
	// Period == "safe").
	T float64 `json:"T"`
	// Agents is the population size (0 = fluid limit).
	Agents int `json:"agents"`
	// Count is the mean-field count engine's population (0 = the cell ran
	// on the fluid or per-agent engine per Agents).
	Count int64 `json:"count,omitempty"`
	// Delta is the task's (δ,ε) accounting width (0 = accounting disabled).
	Delta float64 `json:"delta"`
	// Timeline is the timelines-axis entry's cell label (absent for
	// stationary cells, keeping pre-timeline record streams byte-identical).
	Timeline string `json:"timeline,omitempty"`
	// Seed is the task's derived seed.
	Seed uint64 `json:"seed"`
	// SeedIndex is the replicate number within the cell.
	SeedIndex int `json:"seedIndex"`

	// FinalPotential is Φ at the end of the run; PhiStar is the reference
	// equilibrium potential Φ*; Gap is Φ − Φ*.
	FinalPotential float64 `json:"finalPotential"`
	PhiStar        float64 `json:"phiStar"`
	Gap            float64 `json:"gap"`
	// AtEquilibrium reports the (δ,ε)-equilibrium verdict on the final flow
	// (weak variant if the campaign says so); always false when delta <= 0.
	AtEquilibrium bool `json:"atEquilibrium"`
	// UnsatisfiedPhases counts phases not starting at the configured
	// approximate equilibrium — the quantity bounded by Theorems 6 and 7
	// (counted natively by every engine).
	UnsatisfiedPhases int `json:"unsatisfiedPhases"`
	// Phases is the number of completed bulletin-board phases; Converged
	// reports whether the satisfied-streak stop fired before the budget.
	Phases    int  `json:"phases"`
	Converged bool `json:"converged"`
	// ElapsedSim is the simulated time covered; WallMS the wall-clock cost.
	// WallMS is measurement rather than result — the one nondeterministic
	// field — so it is omitted at zero and cleared by CanonicalRecord, which
	// is how canonical record streams stay byte-comparable across runs and
	// across local-vs-distributed execution. In-memory consumers (progress
	// reporting, the coordinator's straggler accounting, timing summaries)
	// always see the measured value.
	ElapsedSim float64 `json:"elapsedSim"`
	WallMS     float64 `json:"wallMs,omitempty"`
	// Error is non-empty when the task failed (including recovered panics);
	// the result fields are zero in that case.
	Error string `json:"error,omitempty"`

	// aborted marks a task cut short by context cancellation; such records
	// never enter the stream.
	aborted bool
}

// Options configures an engine run.
type Options struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// Results, if non-nil, receives one JSON line per completed task as it
	// finishes (streaming, completion order).
	Results io.Writer
	// Canonical streams CanonicalRecord forms to Results (wall time
	// stripped), so the streamed lines match the canonical byte-comparable
	// record encoding. Progress always receives the full record.
	Canonical bool
	// Progress, if non-nil, is called after each task completes with the
	// completed count, the total and the record. Called from the collector
	// goroutine only, so it needs no locking.
	Progress func(done, total int, rec Record)
	// Metrics, when non-nil, receives the pool's task-latency histograms:
	// one aggregate `sweep_task_ms` plus a per-worker
	// `sweep_task_ms{worker="N"}` for straggler spotting.
	Metrics *obs.Registry
}

// RunResult is a completed (or cleanly interrupted) engine run.
type RunResult struct {
	Campaign *Campaign
	Tasks    []Task
	// Records holds one record per completed task, sorted by task ID; on a
	// cancelled run it covers only the tasks that finished before the
	// interrupt (match against Tasks by ID, not position).
	Records []Record
}

// instEntry caches a built instance and its reference potential per
// topology cell, so tasks sharing an instance pay for construction and the
// Frank–Wolfe solve once. Instances are immutable, hence safe to share
// across workers.
type instEntry struct {
	once    sync.Once
	inst    *flow.Instance
	phiStar float64
	err     error
}

// Run expands the campaign and executes every task on a bounded worker pool.
// Task failures (including panics) are recorded per task, not fatal; the
// returned error is non-nil only for invalid campaigns, context
// cancellation, or a failing Results writer. On cancellation the context is
// threaded into the running simulations, so in-flight tasks abort between
// phases; the records completed so far are returned (sorted, exactly the
// ones already streamed to opts.Results) together with ctx.Err(), letting
// callers flush partial campaigns cleanly.
//
// Tasks with identical run identities (duplicate axis entries — see
// Task.Fingerprint) are simulated once: every duplicate still gets its own
// record in the stream, cloned from the representative's outcome, so record
// counts and downstream aggregation are unaffected while the duplicate
// compute is skipped.
func Run(ctx context.Context, c *Campaign, opts Options) (*RunResult, error) {
	tasks, err := c.Expand()
	if err != nil {
		return nil, err
	}
	groups := dedupTasks(tasks)
	// A sink failure cancels the pool so a broken -out target doesn't burn
	// the rest of the campaign's compute.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}

	var cache sync.Map // topology cache key -> *instEntry

	groupCh := make(chan taskGroup)
	// The sink channel is bounded: workers block once the collector falls
	// behind, keeping memory proportional to the pool size, not the
	// campaign size.
	recCh := make(chan Record, 2*workers)

	// Task-latency instruments: an aggregate histogram plus one per worker,
	// pre-registered here so the pool loop only touches atomics.
	var taskMs *obs.Histogram
	workerMs := make([]*obs.Histogram, workers)
	if opts.Metrics != nil {
		taskMs = opts.Metrics.Histogram("sweep_task_ms", "task wall-clock latency across the pool, milliseconds", nil)
		for w := range workerMs {
			workerMs[w] = opts.Metrics.Histogram(
				fmt.Sprintf("sweep_task_ms{worker=%q}", strconv.Itoa(w)),
				"task wall-clock latency on this worker, milliseconds", nil)
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// One evaluation workspace per worker, reused across every task
			// it runs: after the first task on each topology shape, a
			// task's simulation scratch is fully recycled arena memory.
			ws := flow.NewWorkspace()
			for g := range groupCh {
				rec, aborted := runTaskIsolated(ctx, c, g.rep, &cache, ws)
				if aborted {
					// Cancelled mid-simulation: the task did not complete,
					// so it (and its duplicates) gets no record.
					return
				}
				if taskMs != nil {
					taskMs.Observe(rec.WallMS)
					workerMs[w].Observe(rec.WallMS)
				}
				// Plain send: the collector drains recCh until it closes
				// (even after cancellation), so this cannot deadlock — and
				// a completed task's record must never be dropped, or the
				// partial-flush guarantee would nondeterministically lose
				// finished work.
				recCh <- rec
				// Duplicates clone the representative's outcome with only
				// the bookkeeping identity rebound (the run identity —
				// including the derived seed — is equal by construction).
				for _, d := range g.dups {
					dup := rec
					dup.ID, dup.SeedIndex = d.ID, d.SeedIndex
					recCh <- dup
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(recCh)
	}()

	// Feed task groups, honouring cancellation.
	feedErr := make(chan error, 1)
	go func() {
		defer close(groupCh)
		for _, g := range groups {
			// Checked before the select: with idle workers both select cases
			// are ready after cancellation and Go picks one at random, which
			// would keep feeding tasks the workers then have to abort.
			if err := ctx.Err(); err != nil {
				feedErr <- err
				return
			}
			select {
			case groupCh <- g:
			case <-ctx.Done():
				feedErr <- ctx.Err()
				return
			}
		}
		feedErr <- nil
	}()

	// Collect: stream JSONL, report progress, keep everything for the
	// aggregation pass.
	records := make([]Record, 0, len(tasks))
	enc := json.NewEncoder(io.Discard)
	if opts.Results != nil {
		enc = json.NewEncoder(opts.Results)
	}
	var sinkErr error
	for rec := range recCh {
		if sinkErr == nil {
			line := rec
			if opts.Canonical {
				line = CanonicalRecord(rec)
			}
			if err := enc.Encode(line); err != nil {
				sinkErr = fmt.Errorf("sweep: results sink: %w", err)
				cancel()
			}
		}
		records = append(records, rec)
		if opts.Progress != nil {
			opts.Progress(len(records), len(tasks), rec)
		}
	}
	sortRecords(records)
	result := &RunResult{Campaign: c, Tasks: tasks, Records: records}
	// The sink error wins over the cancellation it triggered.
	if sinkErr != nil {
		return nil, sinkErr
	}
	if err := <-feedErr; err != nil {
		return result, err
	}
	if err := ctx.Err(); err != nil {
		return result, err
	}
	return result, nil
}

// sortRecords orders by task ID.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
}

// runTaskIsolated runs one task, converting panics into per-task error
// records so a poisoned cell cannot take down the campaign. The second
// return reports that the task was aborted by context cancellation and
// therefore has no record.
func runTaskIsolated(ctx context.Context, c *Campaign, t Task, cache *sync.Map, ws *flow.Workspace) (Record, bool) {
	rec := isolated(t, func() Record { return runTask(ctx, c, t, cache, ws) })
	return rec, rec.aborted
}

func isolated(t Task, fn func() Record) (rec Record) {
	defer func() {
		if r := recover(); r != nil {
			rec = errorRecord(t, fmt.Errorf("panic: %v", r))
		}
	}()
	return fn()
}

// errorRecord fills the identity fields so failed tasks still appear exactly
// once in the stream.
func errorRecord(t Task, err error) Record {
	return Record{
		ID:        t.ID,
		Topology:  t.topologyLabel(),
		Policy:    t.policyLabel(),
		Period:    t.Period.String(),
		Agents:    t.Agents,
		Count:     t.Count,
		Delta:     t.Delta,
		Timeline:  t.Timeline.Key(),
		Seed:      t.Seed,
		SeedIndex: t.SeedIndex,
		Error:     err.Error(),
	}
}

func runTask(ctx context.Context, c *Campaign, t Task, cache *sync.Map, ws *flow.Workspace) Record {
	// Bail before the instance build and Frank–Wolfe solve — the expensive
	// pre-engine work — so tasks dequeued around the cancellation instant
	// abort immediately instead of delaying the partial flush.
	if ctx.Err() != nil {
		return Record{aborted: true}
	}
	start := time.Now()

	entry := instanceFor(t, cache)
	if entry.err != nil {
		return errorRecord(t, entry.err)
	}
	inst := entry.inst

	// Tolls transform the instance once at t = 0, before any downstream
	// resolution (policy smoothness, safe period, start distribution);
	// schedules and events compile into a segmented program below. A
	// stationary task passes through unchanged.
	var tl *timeline.Spec
	if t.Timeline != nil {
		tl = &t.Timeline.Spec
	}
	inst, err := timeline.ApplyTolls(tl, inst)
	if err != nil {
		return errorRecord(t, err)
	}

	pol, err := t.Policy.Build(inst)
	if err != nil {
		return errorRecord(t, err)
	}

	T := t.Period.T
	if t.Period.Safe {
		T, err = policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
		if err != nil {
			return errorRecord(t, err)
		}
		if T <= 0 || math.IsInf(T, 0) || math.IsNaN(T) {
			return errorRecord(t, fmt.Errorf("sweep: degenerate safe period %g", T))
		}
	}

	horizon := c.Horizon
	if c.MaxPhases > 0 {
		horizon = float64(c.MaxPhases) * T
	}

	f0, err := startFlow(inst, c.Start)
	if err != nil {
		return errorRecord(t, err)
	}

	// Every population dispatches through the unified engine API: the fluid
	// limit (exact uniformization) for the empty population, the finite-N
	// per-agent engine for Agents cells, the mean-field count engine for
	// Counts cells. The (δ,ε) round accounting and the satisfied-streak
	// stop are native to all of them, so every cell reports the same
	// quantities without any hook emulation here.
	var eng engine.Engine = engine.Fluid{Integrator: dynamics.Uniformization}
	if t.Count > 0 {
		eng = engine.Count{N: t.Count, Seed: t.Seed}
	} else if t.Agents > 0 {
		eng = engine.Agents{N: t.Agents, Seed: t.Seed, Workers: 1}
	}
	sc := engine.Scenario{
		Engine:                   eng,
		Instance:                 inst,
		Policy:                   pol,
		UpdatePeriod:             T,
		InitialFlow:              f0,
		Horizon:                  horizon,
		Delta:                    t.Delta,
		Eps:                      c.Eps,
		Weak:                     c.Weak,
		StopAfterSatisfiedStreak: c.Streak,
	}
	var res *engine.Result
	finalInst := inst
	if tl.NeedsProgram() {
		// Time-varying cell: compile the timeline against the tolled
		// instance and replay it segment by segment (the policy is rebuilt
		// per segment, as events change the instance's latency range).
		prog, perr := timeline.Compile(tl, inst, horizon)
		if perr != nil {
			return errorRecord(t, perr)
		}
		res, _, err = timeline.Run(ctx, prog, sc, func(segInst *flow.Instance) (policy.Policy, error) {
			return t.Policy.Build(segInst)
		}, nil, engine.WithWorkspace(ws))
		finalInst = prog.Segments[len(prog.Segments)-1].Instance
	} else {
		res, err = engine.Run(ctx, sc, engine.WithWorkspace(ws))
	}
	if err != nil {
		if engine.IsCancellation(err) {
			return Record{aborted: true}
		}
		return errorRecord(t, err)
	}

	// The reference potential must match the instance the final flow lives
	// on: the cell-cached Φ* for stationary tasks, a per-task solve when the
	// timeline modified the instance (tolls, or the final segment's event
	// state and demand factors).
	phiStar := entry.phiStar
	if finalInst != entry.inst {
		sol, serr := solver.SolveEquilibrium(finalInst, solver.Options{RelGapTol: 1e-10})
		if serr != nil {
			return errorRecord(t, serr)
		}
		phiStar = sol.Potential
	}

	rec := Record{
		ID:        t.ID,
		Topology:  t.topologyLabel(),
		Policy:    t.policyLabel(),
		Period:    t.Period.String(),
		T:         T,
		Agents:    t.Agents,
		Count:     t.Count,
		Delta:     t.Delta,
		Timeline:  t.Timeline.Key(),
		Seed:      t.Seed,
		SeedIndex: t.SeedIndex,

		FinalPotential:    res.FinalPotential,
		PhiStar:           phiStar,
		Gap:               res.FinalPotential - phiStar,
		UnsatisfiedPhases: res.UnsatisfiedPhases,
		Phases:            res.Phases,
		Converged:         res.Stopped,
		ElapsedSim:        res.Elapsed,
		WallMS:            float64(time.Since(start)) / float64(time.Millisecond),
	}
	if t.Delta > 0 {
		pathLat := finalInst.PathLatencies(res.Final)
		if c.Weak {
			rec.AtEquilibrium = finalInst.AtWeakApproxEquilibrium(res.Final, pathLat, t.Delta, c.Eps)
		} else {
			rec.AtEquilibrium = finalInst.AtApproxEquilibrium(res.Final, pathLat, t.Delta, c.Eps)
		}
	}
	return rec
}

// instanceFor returns the cached (instance, Φ*) pair for the task's topology
// cell, building and solving at most once per cell. Seed-dependent families
// (layered) cache per seed. Labels and seededness come from the task's
// expansion-time catalog resolution, so cache hits pay no JSON work; the
// catalog constructor runs once per cell inside the entry's once.
func instanceFor(t Task, cache *sync.Map) *instEntry {
	key := t.topologyLabel()
	if t.topologySeeded() {
		key = fmt.Sprintf("%s#%d", key, t.Seed)
	}
	v, _ := cache.LoadOrStore(key, &instEntry{})
	entry := v.(*instEntry)
	entry.once.Do(func() {
		// sync.Once marks the call done even if it panics, so convert
		// build/solve panics into the entry's error — otherwise later tasks
		// in the cell would see a half-initialised entry and crash with a
		// misleading nil dereference.
		defer func() {
			if r := recover(); r != nil {
				entry.inst, entry.err = nil, fmt.Errorf("sweep: instance build panic: %v", r)
			}
		}()
		entry.inst, entry.err = t.Topology.Build(t.Seed)
		if entry.err != nil {
			return
		}
		sol, err := solver.SolveEquilibrium(entry.inst, solver.Options{RelGapTol: 1e-10})
		if err != nil {
			entry.err = err
			return
		}
		entry.phiStar = sol.Potential
	})
	return entry
}

// startFlow builds the campaign's initial flow on an instance through the
// start-distribution catalog.
func startFlow(inst *flow.Instance, start string) (flow.Vector, error) {
	f, err := engine.BuildStart(start, inst)
	if err != nil {
		return nil, badCampaign(err)
	}
	return f, nil
}
