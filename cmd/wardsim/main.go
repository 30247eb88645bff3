// Command wardsim runs one rerouting-dynamics simulation and emits the
// trajectory (time, potential, flows) as CSV on stdout. It dispatches
// through the unified wardrop.Run API and the component catalog: the -topo,
// -policy, -agents and -count flags select registered components (fluid
// limit, best response, finite-N agents, or the mean-field count engine),
// and -scenario runs a declarative scenario file instead of flags.
//
// SIGINT cancels the run context; the partial trajectory simulated so far is
// flushed before exiting.
//
// Usage:
//
//	wardsim -topo braess -policy replicator -T 0.1 -horizon 50
//	wardsim -topo kink -beta 8 -policy bestresponse -T 0.5 -horizon 20
//	wardsim -topo links -m 16 -policy uniform -T safe -horizon 100 -agents 1000
//	wardsim -topo pigou -policy uniform -T safe -horizon 100 -count 1000000
//	wardsim -scenario run.json
//	wardsim -topo braess -horizon 10 -trace run-trace.jsonl
//	wardsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"wardrop"
	"wardrop/internal/drain"
)

func main() {
	// SIGINT/SIGTERM cancel the run context (the partial-trajectory flush
	// follows); a second signal terminates the process.
	ctx, stop := drain.Context(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wardsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wardsim", flag.ContinueOnError)
	topoName := fs.String("topo", "braess", "topology: any registered family (see -list)")
	instFile := fs.String("instance", "", "JSON instance file (overrides -topo)")
	scenFile := fs.String("scenario", "", "JSON scenario file (overrides every other selection flag)")
	beta := fs.Float64("beta", 4, "kink slope (topo=kink)")
	m := fs.Int("m", 8, "link count (topo=links) / grid side (topo=grid) / layer width (topo=layered)")
	seed := fs.Uint64("seed", 1, "seed (seeded topologies, agent sim)")
	policyName := fs.String("policy", "replicator", "policy: any registered sampler (see -list), or bestresponse")
	c := fs.Float64("c", 4, "Boltzmann concentration (policy=boltzmann)")
	period := fs.String("T", "safe", "bulletin-board period: a number, or 'safe'")
	horizon := fs.Float64("horizon", 50, "simulated time")
	every := fs.Int("every", 1, "record every k phases")
	agentsN := fs.Int64("agents", 0, "if > 0, run the finite-N per-agent simulator instead of the fluid limit")
	countN := fs.Int64("count", 0, "if > 0, run the mean-field count engine (same process as -agents, O(paths) per phase — use for millions of agents)")
	list := fs.Bool("list", false, "print the registered component catalog and exit")
	jsonOut := fs.Bool("json", false, "with -scenario: emit the canonical JSON result document instead of CSV (byte-identical to wardserve's POST /v1/scenarios response)")
	traceOut := fs.String("trace", "", "write one JSONL span per phase (and per timeline event) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return wardrop.WriteCatalog(stdout)
	}
	if *jsonOut && *scenFile == "" {
		return fmt.Errorf("-json requires -scenario (only scenario files have a canonical result document)")
	}
	// The tracer rides the engine observer pipeline, so every run path —
	// fluid, best response, agents, counts, scenario timelines — traces the
	// same way. The ring bounds memory on unbounded runs; an overflow is
	// reported, not silent.
	var tracer *wardrop.Tracer
	var traceOpts []wardrop.RunOption
	if *traceOut != "" {
		tracer = wardrop.NewTracer(1 << 16)
		traceOpts = append(traceOpts, wardrop.WithObserver(tracer))
	}
	if *scenFile != "" {
		return runScenario(ctx, *scenFile, *jsonOut, tracer, *traceOut, stdout)
	}
	// Reject bad run-shape flags up front instead of passing them to the
	// simulators (where e.g. -every 0 silently disables recording and
	// -agents < 0 only fails deep inside the agent distributor).
	if *horizon <= 0 || math.IsNaN(*horizon) || math.IsInf(*horizon, 0) {
		return fmt.Errorf("invalid -horizon %g: must be positive and finite", *horizon)
	}
	if *every < 1 {
		return fmt.Errorf("invalid -every %d: must be >= 1", *every)
	}
	if *agentsN < 0 {
		return fmt.Errorf("invalid -agents %d: must be >= 0", *agentsN)
	}
	if *agentsN > wardrop.MaxAgentPopulation {
		return fmt.Errorf("invalid -agents %d: the per-agent simulator holds at most %d agents; use -count for larger populations", *agentsN, int64(wardrop.MaxAgentPopulation))
	}
	if *countN < 0 {
		return fmt.Errorf("invalid -count %d: must be >= 0", *countN)
	}
	if *countN > 0 && *agentsN > 0 {
		return fmt.Errorf("-agents and -count select different engines for the same process; pass one of them")
	}

	var inst *wardrop.Instance
	var err error
	if *instFile != "" {
		f, ferr := os.Open(*instFile)
		if ferr != nil {
			return ferr
		}
		inst, err = wardrop.ParseInstance(f)
		f.Close()
	} else {
		// The flags map onto the catalog's topology parameters; any
		// registered family is selectable by name.
		inst, err = wardrop.CampaignTopology{Family: *topoName, Size: *m, Beta: *beta}.Build(*seed)
	}
	if err != nil {
		return err
	}

	scenario := wardrop.Scenario{
		Instance:    inst,
		Horizon:     *horizon,
		RecordEvery: *every,
	}

	if *policyName == "bestresponse" {
		if *agentsN > 0 || *countN > 0 {
			return fmt.Errorf("-agents/-count cannot be combined with -policy bestresponse (a fluid-only dynamics)")
		}
		T, err := parsePeriod(*period, 0.5)
		if err != nil {
			return err
		}
		scenario.Engine = wardrop.BestResponseEngine{}
		scenario.UpdatePeriod = T
		if *topoName == "kink" {
			f1, _, _ := wardrop.TwoLinkOscillation(*beta, T, 0)
			scenario.InitialFlow = wardrop.Flow{f1, 1 - f1}
		}
		res, err := wardrop.Run(ctx, scenario, traceOpts...)
		return finish(stdout, res, err, tracer, *traceOut)
	}

	pol, err := wardrop.CampaignPolicy{Kind: *policyName, C: *c}.Build(inst)
	if err != nil {
		return err
	}
	safe, err := wardrop.SafeUpdatePeriodFor(pol, inst)
	if err != nil {
		return err
	}
	T, err := parsePeriod(*period, safe)
	if err != nil {
		return err
	}
	scenario.Policy = pol
	scenario.UpdatePeriod = T

	switch {
	case *countN > 0:
		scenario.Engine = wardrop.CountEngine{N: *countN, Seed: *seed}
	case *agentsN > 0:
		scenario.Engine = wardrop.AgentsEngine{N: int(*agentsN), Seed: *seed}
	default:
		scenario.Engine = wardrop.FluidEngine{Integrator: wardrop.Uniformization}
	}
	res, err := wardrop.Run(ctx, scenario, traceOpts...)
	return finish(stdout, res, err, tracer, *traceOut)
}

// runScenario executes a declarative scenario file through the shared
// ScenarioSpec.Run path (stationary specs run exactly as before; timeline
// specs execute segment by segment); with jsonOut it emits the canonical
// result document shared with the serving layer instead of CSV. A tracer
// additionally marks every applied timeline event between its phase spans.
func runScenario(ctx context.Context, path string, jsonOut bool, tracer *wardrop.Tracer, tracePath string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sc, err := wardrop.ParseScenario(f)
	f.Close()
	if err != nil {
		return err
	}
	var onEvent func(wardrop.TimelineEvent)
	var opts []wardrop.RunOption
	if tracer != nil {
		onEvent = func(ev wardrop.TimelineEvent) { tracer.MarkEvent(ev.Action, ev.Time) }
		opts = append(opts, wardrop.WithObserver(tracer))
	}
	res, events, err := sc.Run(ctx, onEvent, opts...)
	if jsonOut {
		if err != nil {
			return err
		}
		doc, err := wardrop.NewRunResult(sc, res, events)
		if err != nil {
			return err
		}
		if err := doc.Encode(stdout); err != nil {
			return err
		}
		return writeTrace(tracer, tracePath)
	}
	if err := finish(stdout, res, err, tracer, tracePath); err != nil {
		return err
	}
	for _, ev := range events {
		fmt.Fprintf(stdout, "# event t=%g action=%s edge=%d\n", ev.Time, ev.Action, ev.Edge)
	}
	return nil
}

func parsePeriod(s string, safe float64) (float64, error) {
	if s == "safe" {
		return safe, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("invalid period %q: want a positive finite number or \"safe\"", s)
	}
	return v, nil
}

// finish emits the trajectory, then flushes the trace file — also on an
// interrupted run, so a cancelled simulation still leaves its partial spans
// on disk next to the partial trajectory.
func finish(w io.Writer, res *wardrop.Result, err error, tracer *wardrop.Tracer, tracePath string) error {
	emitErr := emit(w, res, err)
	if terr := writeTrace(tracer, tracePath); terr != nil && emitErr == nil {
		return terr
	}
	return emitErr
}

// writeTrace dumps the tracer ring as JSONL (one span per line); a nil tracer
// is a no-op. A ring overflow on a long run is reported on stderr.
func writeTrace(tracer *wardrop.Tracer, path string) error {
	if tracer == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if n := tracer.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "wardsim: trace ring overflowed, oldest %d spans dropped\n", n)
	}
	return nil
}

// emit prints the recorded trajectory as CSV. On context cancellation the
// partial trajectory is flushed with an interruption marker instead of the
// run dying mid-write.
func emit(w io.Writer, res *wardrop.Result, err error) error {
	interrupted := err != nil && res != nil && wardrop.IsInterrupt(err)
	if err != nil && !interrupted {
		return err
	}
	fmt.Fprintln(w, "time,potential,flows...")
	for _, s := range res.Trajectory {
		fmt.Fprintf(w, "%g,%g", s.Time, s.Potential)
		for _, f := range s.Flow {
			fmt.Fprintf(w, ",%g", f)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# phases=%d elapsed=%g finalPotential=%g\n", res.Phases, res.Elapsed, res.FinalPotential)
	if interrupted {
		fmt.Fprintln(w, "# interrupted: partial trajectory flushed")
		return err
	}
	return nil
}
