package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"wardrop/internal/dynamics"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/meanfield"
	"wardrop/internal/obs"
	"wardrop/internal/policy"
	"wardrop/internal/scenario"
	"wardrop/internal/solver"
	"wardrop/internal/sweep"
)

// timeSetup runs setup reps times (once when traced) and reports the
// median as setup_s.
func timeSetup(rep *report, reps int, setup func() error) error {
	if rep.tr != nil {
		reps = 1
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	if rep.tr == nil {
		rep.note("set-up seconds, %d runs: %.4g", reps, secs)
		rep.set("setup_s", "s", median(secs))
	}
	return nil
}

// oracle checks a run's result with the repository's own reference code.
type oracle struct {
	inst    *flow.Instance
	phiStar float64
	// monotone: the run is fluid at the safe period, so Φ must not rise
	// from one phase start to the next (the paper's guarantee).
	monotone bool
}

func newOracle(inst *flow.Instance) (*oracle, error) {
	sol, err := solver.SolveEquilibrium(inst, solver.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference equilibrium: %w", err)
	}
	return &oracle{inst: inst, phiStar: sol.Potential}, nil
}

func (o *oracle) fluid() *oracle { c := *o; c.monotone = true; return &c }

// check verifies a result: the final flow is feasible (for the count and
// agents engines this is population conservation), the reported Φ equals
// the reference Instance.Potential bit for bit, Φ is not below the
// Frank–Wolfe Φ*, and a safe-period fluid run's Φ never rose between the
// phase starts in phis.
func (o *oracle) check(res *engine.Result, phis []float64) error {
	if err := o.inst.Feasible(res.Final, 1e-9*math.Max(1, o.inst.TotalDemand())); err != nil {
		return fmt.Errorf("final flow: %w", err)
	}
	if ref := o.inst.Potential(res.Final); res.FinalPotential != ref {
		return fmt.Errorf("reported potential %v, reference %v", res.FinalPotential, ref)
	}
	if res.FinalPotential < o.phiStar-1e-6*math.Max(1, math.Abs(o.phiStar)) {
		return fmt.Errorf("potential %v below the equilibrium potential %v", res.FinalPotential, o.phiStar)
	}
	if o.monotone {
		seq := append(phis, res.FinalPotential)
		for k := 1; k < len(seq); k++ {
			if seq[k] > seq[k-1]+1e-12*math.Abs(seq[k-1]) {
				return fmt.Errorf("potential rose from %v to %v at phase %d", seq[k-1], seq[k], k)
			}
		}
	}
	return nil
}

// phaseSpan names the span of one phase of each engine.
var phaseSpan = map[string]string{
	"fluid":        "dynamics.fluid_phase",
	"bestresponse": "dynamics.br_phase",
	"count":        "meanfield.phase",
	"agents":       "agents.phase",
}

// phaseWatch is the observer every sim run carries: it keeps each phase
// start's Φ for the checks and, when traced, records each phase as a span
// from its start to the next phase's start or the end of the run.
type phaseWatch struct {
	phis          []float64
	tr            *tracer
	name          string
	trace, parent uint64
	open          openSpan
	started       bool
}

func (w *phaseWatch) reset(kind string, parent openSpan) {
	w.phis = w.phis[:0]
	w.name = phaseSpan[kind]
	w.trace, w.parent = parent.s.Trace, parent.s.ID
	w.started = false
}

func (w *phaseWatch) ObservePhase(info dynamics.PhaseInfo) bool {
	w.phis = append(w.phis, info.Potential)
	if w.tr != nil {
		w.finish()
		w.open = w.tr.start(w.name, w.trace, w.parent)
		w.started = true
	}
	return false
}

// finish ends the open phase span. The engine reports phase starts only,
// so the run's caller calls it when the engine returns, and the last phase
// is timed too.
func (w *phaseWatch) finish() {
	if w.started {
		w.open.end("")
		w.started = false
	}
}

// simJob is one engine run of a sim operation.
type simJob struct {
	kind   string
	oracle *oracle
	// run performs the job for operation i with w as its observer, calls
	// w.finish when the engine returns, and gives the result and, when the
	// job produces one, the encoded result document.
	run func(ctx context.Context, i int, sp openSpan, w *phaseWatch) (res *engine.Result, doc []byte, err error)
}

// runOps runs operations back to back for the window (at least one). One
// operation runs every job once, in order, and is timed as a whole, so a
// slower engine moves every operation by its share. Each result is checked
// right after its run, outside the timing; a failed check fails the
// operation.
func runOps(rep *report, jobs []simJob, window time.Duration) {
	ctx := context.Background()
	w := &phaseWatch{tr: rep.tr}
	var lat []float64
	rep.measureRSS(window)
	end := time.Now().Add(window)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		op := rep.tr.start("sim.op", 0, 0)
		var d time.Duration
		var failed error
		for _, j := range jobs {
			sp := rep.tr.start("sim.run."+j.kind, op.s.Trace, op.s.ID)
			w.reset(j.kind, sp)
			t0 := time.Now()
			res, doc, err := j.run(ctx, i, sp, w)
			d += time.Since(t0)
			sp.end("")
			if err == nil {
				err = j.oracle.check(res, w.phis)
			}
			if err == nil && doc != nil {
				err = checkDocument(doc, res)
			}
			if err != nil && failed == nil {
				failed = fmt.Errorf("operation %d, %s run: %w", i, j.kind, err)
			}
		}
		op.end("")
		rep.op(failed)
		lat = append(lat, ms(d))
		rep.rss.tick()
	}
	opMetrics(rep, lat, nil)
}

// checkDocument verifies that an encoded result document carries the run's
// result exactly.
func checkDocument(doc []byte, res *engine.Result) error {
	var got scenario.RunResult
	if err := json.Unmarshal(doc, &got); err != nil {
		return fmt.Errorf("result document: %w", err)
	}
	if got.FinalPotential != res.FinalPotential || got.Phases != res.Phases || len(got.Final) != len(res.Final) {
		return fmt.Errorf("result document disagrees with the run")
	}
	for k := range got.Final {
		if got.Final[k] != res.Final[k] {
			return fmt.Errorf("result document flow %d disagrees with the run", k)
		}
	}
	return nil
}

// runSimLarge: one sparse-random instance with 10⁵ edges, built in set-up.
// One operation runs fluid, best-response and count on it back to back
// through engine.Run with one reused workspace. README.md gives the
// rationale.
func runSimLarge(cfg config, rep *report) error {
	in := simInputs{
		top:     sweep.Topology{Family: "sparse-random", Size: 100_000, Params: json.RawMessage(`{"commodities":4,"kpaths":12}`)},
		seed:    derive(cfg.seed, "sim-large/instance"),
		policy:  sweep.PolicySpec{Kind: "replicator"},
		start:   "skewed",
		phases:  6,
		countN:  1_000_000,
		agentsN: 10_000,
	}
	if cfg.tiny {
		in.top.Size = 3000
	}
	// Three set-ups of four seconds each: the set-up time varies far more
	// with the seed's instance than from one build to the next.
	var sc engine.Scenario
	if err := timeSetup(rep, 3, func() (err error) {
		sc, err = in.scenario()
		return err
	}); err != nil {
		return err
	}
	base, err := newOracle(sc.Instance)
	if err != nil {
		return err
	}
	ws := flow.NewWorkspace()
	runner := func(eng func(i int) engine.Engine) func(context.Context, int, openSpan, *phaseWatch) (*engine.Result, []byte, error) {
		return func(ctx context.Context, i int, _ openSpan, w *phaseWatch) (*engine.Result, []byte, error) {
			s := sc
			s.Engine = eng(i)
			res, err := engine.Run(ctx, s, engine.WithObserver(w), engine.WithWorkspace(ws))
			w.finish()
			return res, nil, err
		}
	}
	jobs := []simJob{
		{"fluid", base.fluid(), runner(func(int) engine.Engine { return engine.Fluid{} })},
		{"bestresponse", base, runner(func(int) engine.Engine { return engine.BestResponse{} })},
		{"count", base, runner(func(i int) engine.Engine {
			return engine.Count{N: in.countN, Seed: derive(cfg.seed, fmt.Sprint("sim-large/count/", i))}
		})},
	}
	rep.note("instance: %d edges, %d paths, safe period %g, %d phases per run", sc.Instance.Graph().NumEdges(), sc.Instance.NumPaths(), sc.UpdatePeriod, in.phases)
	runOps(rep, jobs, cfg.window())
	if rep.tr != nil {
		if err := simProbe(rep, in); err != nil {
			return err
		}
		if err := serveProbe(cfg, rep); err != nil {
			return err
		}
		return fleetProbe(cfg, rep)
	}
	return nil
}

// runSimDense: the `wardsim -scenario -json` path (scenario.Parse →
// Spec.Run → NewRunResult/Encode) on small graphs whose work is all in the
// advance stage. One operation runs a fluid, a count and an agents
// document back to back.
func runSimDense(cfg config, rep *report) error {
	grid, agentsN, countN := 6, 100_000, int64(10_000_000)
	if cfg.tiny {
		grid, agentsN, countN = 3, 1000, 100_000
	}
	const docsPerKind = 64
	type kindDocs struct {
		kind   string
		format string
		docs   [][]byte
		oracle *oracle
	}
	// The phase counts give each engine about a third of an operation
	// (README.md).
	kinds := []*kindDocs{
		{kind: "fluid", format: fmt.Sprintf(`{"name":"dense-fluid-%%d","topology":{"family":"grid","size":%d},"policy":{"kind":"replicator"},"start":"skewed","maxPhases":1}`, grid)},
		{kind: "count", format: fmt.Sprintf(`{"name":"dense-count-%%d","topology":{"family":"grid","size":%d},"policy":{"kind":"replicator"},"start":"skewed","engine":{"kind":"count","n":%d,"seed":%%d},"maxPhases":3}`, grid, countN)},
		{kind: "agents", format: fmt.Sprintf(`{"name":"dense-agents-%%d","topology":{"family":"grid","size":3},"policy":{"kind":"replicator"},"start":"skewed","engine":{"kind":"agents","n":%d,"seed":%%d},"maxPhases":6}`, agentsN)},
	}
	for _, k := range kinds {
		for i := 0; i < docsPerKind; i++ {
			s := derive(cfg.seed, fmt.Sprint("sim-dense/", k.kind, "/", i))
			doc := k.format
			if k.kind == "fluid" {
				doc = fmt.Sprintf(doc, i)
			} else {
				doc = fmt.Sprintf(doc, i, s)
			}
			k.docs = append(k.docs, []byte(doc))
		}
	}
	ws := flow.NewWorkspace()
	// Set-up parses and materialises each kind's scenario and runs it once,
	// so the measurement starts with compiled instances and a warm workspace.
	if err := timeSetup(rep, 7, func() error {
		for _, k := range kinds {
			spec, err := scenario.Parse(bytes.NewReader(k.docs[0]))
			if err != nil {
				return err
			}
			sc, err := spec.Scenario()
			if err != nil {
				return err
			}
			if k.oracle == nil {
				if k.oracle, err = newOracle(sc.Instance); err != nil {
					return err
				}
				if k.kind == "fluid" {
					k.oracle = k.oracle.fluid()
				}
			}
			if _, _, err := spec.Run(context.Background(), nil, engine.WithWorkspace(ws)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var jobs []simJob
	for _, k := range kinds {
		jobs = append(jobs, simJob{k.kind, k.oracle, func(ctx context.Context, i int, sp openSpan, w *phaseWatch) (*engine.Result, []byte, error) {
			doc := k.docs[i%docsPerKind]
			p := rep.tr.start("scenario.parse", sp.s.Trace, sp.s.ID)
			spec, err := scenario.Parse(bytes.NewReader(doc))
			p.end("")
			if err != nil {
				return nil, nil, err
			}
			res, events, err := spec.Run(ctx, nil, engine.WithObserver(w), engine.WithWorkspace(ws))
			w.finish()
			if err != nil {
				return nil, nil, err
			}
			e := rep.tr.start("scenario.encode", sp.s.Trace, sp.s.ID)
			defer e.end("")
			out, err := scenario.NewRunResult(spec, res, events)
			if err != nil {
				return nil, nil, err
			}
			var buf bytes.Buffer
			err = out.Encode(&buf)
			return res, buf.Bytes(), err
		}})
	}
	runOps(rep, jobs, cfg.window())
	if rep.tr != nil {
		in := simInputs{
			top:     sweep.Topology{Family: "grid", Size: grid},
			policy:  sweep.PolicySpec{Kind: "replicator"},
			start:   "skewed",
			phases:  2,
			countN:  countN,
			agentsN: agentsN,
		}
		if err := simProbe(rep, in); err != nil {
			return err
		}
		if err := serveProbe(cfg, rep); err != nil {
			return err
		}
		return fleetProbe(cfg, rep)
	}
	return nil
}

// simInputs selects the instance and run shape the sim layers are measured
// on.
type simInputs struct {
	top     sweep.Topology
	seed    uint64
	policy  sweep.PolicySpec
	start   string
	phases  int
	countN  int64
	agentsN int
}

// scenario builds the instance, the policy, the safe period and the start
// flow, and runs the evaluator's lazy compile.
func (in simInputs) scenario() (engine.Scenario, error) {
	inst, err := in.top.Build(in.seed)
	if err != nil {
		return engine.Scenario{}, err
	}
	flow.NewEvaluator(inst, nil)
	return in.scenarioOn(inst)
}

func (in simInputs) scenarioOn(inst *flow.Instance) (engine.Scenario, error) {
	pol, err := in.policy.Build(inst)
	if err != nil {
		return engine.Scenario{}, err
	}
	T, err := policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
	if err != nil {
		return engine.Scenario{}, err
	}
	f0, err := engine.BuildStart(in.start, inst)
	if err != nil {
		return engine.Scenario{}, err
	}
	return engine.Scenario{Instance: inst, Policy: pol, UpdatePeriod: T, InitialFlow: f0, Horizon: float64(in.phases) * T}, nil
}

func (in simInputs) engine(kind string, seed uint64) engine.Engine {
	switch kind {
	case "bestresponse":
		return engine.BestResponse{}
	case "count":
		return engine.Count{N: in.countN, Seed: seed}
	case "agents":
		return engine.Agents{N: in.agentsN, Seed: seed}
	}
	return engine.Fluid{}
}

// captureFlows copies the flow and posted latencies at every phase start.
type captureFlows struct {
	flows, lats [][]float64
}

func (c *captureFlows) ObservePhase(info dynamics.PhaseInfo) bool {
	c.flows = append(c.flows, append([]float64(nil), info.Flow...))
	c.lats = append(c.lats, append([]float64(nil), info.PathLatencies...))
	return false
}

// probeReps is how many times the probe repeats each timed layer call.
const probeReps = 20

// simProbe measures the simulation layers from outside on the given
// inputs: the build (topology, k-shortest paths, kernel compile), each
// engine's runs and phases, the direct kernel, latency, policy and
// multinomial calls on captured phase-start flows, the allocations per
// phase of every engine, and the cost of attaching an obs.Tracer.
func simProbe(rep *report, in simInputs) error {
	tr := rep.tr
	var inst *flow.Instance
	var err error
	tr.time("topo.build", func() { inst, err = in.top.Build(in.seed) })
	if err != nil {
		return err
	}
	tr.time("graph.kshortest", func() {
		weight := func(e graph.EdgeID) float64 { return inst.Latency(e).Value(0) }
		for i := 0; i < inst.NumCommodities() && err == nil; i++ {
			c := inst.Commodity(i)
			_, err = inst.Graph().KShortestPaths(c.Source, c.Sink, inst.NumCommodityPaths(i), weight)
		}
	})
	if err != nil {
		return err
	}
	tr.time("flow.compile", func() { flow.NewEvaluator(inst, nil) })
	sc, err := in.scenarioOn(inst)
	if err != nil {
		return err
	}
	base, err := newOracle(inst)
	if err != nil {
		return err
	}

	ctx := context.Background()
	ws := flow.NewWorkspace()
	w := &phaseWatch{tr: tr}
	captured := map[string]*captureFlows{}
	for _, kind := range engineKinds {
		o := base
		if kind == "fluid" {
			o = base.fluid()
		}
		capture := &captureFlows{}
		captured[kind] = capture
		for r := 0; r < 3; r++ {
			s := sc
			s.Engine = in.engine(kind, uint64(r)+1)
			root := tr.start("sim.run."+kind, 0, 0)
			w.reset(kind, root)
			opts := []engine.RunOption{engine.WithWorkspace(ws), engine.WithObserver(w)}
			if r == 0 {
				opts = append(opts, engine.WithObserver(capture))
			}
			res, err := engine.Run(ctx, s, opts...)
			w.finish()
			root.end("")
			if err == nil {
				err = o.check(res, w.phis)
			}
			if err != nil {
				err = fmt.Errorf("probe %s run: %w", kind, err)
			}
			rep.op(err)
		}
		// Heap allocations per phase on the warm workspace, without the
		// benchmark's own observers: the difference between a run of twice
		// the phases and a run of the phases, so per-run set-up cancels.
		var allocs, phases [2]float64
		for r, scale := range []float64{1, 2} {
			s := sc
			s.Engine = in.engine(kind, 1)
			s.Horizon *= scale
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := engine.Run(ctx, s, engine.WithWorkspace(ws))
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			allocs[r], phases[r] = float64(after.Mallocs-before.Mallocs), float64(res.Phases)
		}
		rep.set("engine.allocs_per_phase."+kind, "count", (allocs[1]-allocs[0])/max(phases[1]-phases[0], 1))
	}

	layerCalls(rep, sc, captured["fluid"], captured["count"], in.countN)

	// Tracer overhead: fluid runs alternately with and without an
	// obs.Tracer attached.
	var plain, traced []float64
	for r := 0; r < 5; r++ {
		s := sc
		s.Engine = engine.Fluid{}
		t0 := time.Now()
		if _, err := engine.Run(ctx, s, engine.WithWorkspace(ws)); err != nil {
			return err
		}
		plain = append(plain, float64(time.Since(t0)))
		t0 = time.Now()
		if _, err := engine.Run(ctx, s, engine.WithWorkspace(ws), engine.WithObserver(obs.NewTracer(0))); err != nil {
			return err
		}
		traced = append(traced, float64(time.Since(t0)))
	}
	rep.set("obs.trace_overhead_pct", "%", 100*(median(traced)/median(plain)-1))
	return nil
}

// layerCalls times the flow kernel, the latency program, the policy fill
// and the multinomial split directly, on phase-start flows captured from
// the fluid and count runs, and reports the computed bytes of one
// evaluation pass.
func layerCalls(rep *report, sc engine.Scenario, fluid, count *captureFlows, countN int64) {
	tr, inst := rep.tr, sc.Instance
	ev := flow.NewEvaluator(inst, nil)
	evSerial := flow.NewEvaluator(inst, nil)
	evSerial.SetParallelism(1)
	prog := inst.Program()
	vals := make([]float64, inst.Graph().NumEdges())
	for r := 0; r < probeReps; r++ {
		f := fluid.flows[r%len(fluid.flows)]
		tr.time("flow.eval", func() { ev.Eval(f) })
		tr.time("flow.potential", func() { ev.Potential() })
		tr.time("latency.values", func() { prog.Values(ev.EdgeFlows(), vals) })
		tr.time("flow.eval_serial", func() { evSerial.Eval(f) })
	}

	// The policy fill: every origin row of the migration-rate matrix at
	// the latencies posted at a phase start.
	pol := sc.Policy
	maxK := 0
	for i := 0; i < inst.NumCommodities(); i++ {
		maxK = max(maxK, inst.NumCommodityPaths(i))
	}
	probs, rates := make([]float64, maxK), make([]float64, maxK)
	fill := func(f, lats []float64, each func(origin int, rates []float64, total float64)) {
		for i := 0; i < inst.NumCommodities(); i++ {
			lo, hi := inst.CommodityRange(i)
			n := hi - lo
			for p := 0; p < n; p++ {
				pol.Sampler.Probabilities(p, f[lo:hi], lats[lo:hi], probs[:n])
				total := policy.MigrationRates(pol.Migrator, p, lats[lo:hi], probs[:n], rates[:n])
				if each != nil {
					each(p, rates[:n], total)
				}
			}
		}
	}
	for r := 0; r < probeReps; r++ {
		k := r % len(fluid.flows)
		tr.time("policy.fill", func() { fill(fluid.flows[k], fluid.lats[k], nil) })
	}

	// Incremental refresh across consecutive count phase starts.
	for r := 0; r < probeReps && len(count.flows) > 1; r++ {
		k := r % (len(count.flows) - 1)
		f0, f1 := count.flows[k], count.flows[k+1]
		var changed []int
		for g := range f0 {
			if f0[g] != f1[g] {
				changed = append(changed, g)
			}
		}
		ev.Eval(f0)
		tr.time("flow.refresh", func() { ev.Refresh(f1, changed...) })
	}

	// The multinomial split of a count phase: N agents of one origin path
	// over their destinations, with probabilities rate·T and the rest
	// staying.
	rng := meanfield.NewRNG(7)
	var dest []float64
	fill(count.flows[0], count.lats[0], func(origin int, rates []float64, total float64) {
		if dest == nil && total > 0 {
			dest = make([]float64, len(rates))
			for q, r := range rates {
				dest[q] = math.Min(r*sc.UpdatePeriod, 1)
			}
			dest[origin] = math.Max(0, 1-math.Min(total*sc.UpdatePeriod, 1))
		}
	})
	if dest == nil {
		dest = []float64{1}
	}
	out := make([]int64, len(dest))
	for r := 0; r < probeReps; r++ {
		tr.time("meanfield.multinomial", func() { rng.Multinomial(countN, dest, out) })
	}

	// Bytes one evaluation pass moves, computed from the instance shape
	// (not measured): path flows read and path latencies written (8 B
	// each per path), a 4 B index and an 8 B value per path-edge entry in
	// both the scatter and the gather, and per edge the flow read, the
	// latency written and two coefficients read (32 B).
	pathEdges := 0
	for g := 0; g < inst.NumPaths(); g++ {
		pathEdges += len(inst.Path(g).Edges)
	}
	bytes := 16*inst.NumPaths() + 24*pathEdges + 32*inst.Graph().NumEdges()
	rep.set("flow.eval_bytes", "bytes", float64(bytes))
	rep.note("sim layers on %d nodes, %d edges, %d paths, %d path-edge entries",
		inst.Graph().NumNodes(), inst.Graph().NumEdges(), inst.NumPaths(), pathEdges)
}
