package scenario

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"wardrop/internal/engine"
	"wardrop/internal/policy"
	"wardrop/internal/sweep"
	"wardrop/internal/timeline"
	"wardrop/internal/topo"
)

const braessScenario = `{
  "name": "braess-replicator",
  "topology": {"family": "braess"},
  "policy": {"kind": "replicator"},
  "updatePeriod": "safe",
  "horizon": 10,
  "recordEvery": 2
}`

func TestParseAndRun(t *testing.T) {
	s, err := Parse(strings.NewReader(braessScenario))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Instance == nil || sc.UpdatePeriod <= 0 || sc.Horizon != 10 || sc.RecordEvery != 2 {
		t.Fatalf("scenario = %+v", sc)
	}
	res, err := engine.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == 0 || len(res.Trajectory) == 0 {
		t.Errorf("phases=%d trajectory=%d", res.Phases, len(res.Trajectory))
	}
}

// A scenario file must reproduce the equivalent hand-assembled engine run
// exactly: same instance, policy, safe period, start flow and engine — the
// declarative layer adds no behavior of its own.
func TestScenarioMatchesHandAssembledRun(t *testing.T) {
	s, err := Parse(strings.NewReader(braessScenario))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}

	inst, err := topo.Braess()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	T, err := policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Run(context.Background(), engine.Scenario{
		Instance:     inst,
		Policy:       pol,
		UpdatePeriod: T,
		Horizon:      10,
		RecordEvery:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalPotential != want.FinalPotential || got.Phases != want.Phases || got.Elapsed != want.Elapsed {
		t.Errorf("scenario run (phi=%g phases=%d) differs from hand-assembled run (phi=%g phases=%d)",
			got.FinalPotential, got.Phases, want.FinalPotential, want.Phases)
	}
	for i := range want.Final {
		if got.Final[i] != want.Final[i] {
			t.Errorf("final[%d] = %g, want %g", i, got.Final[i], want.Final[i])
		}
	}
}

func TestEmbeddedInstance(t *testing.T) {
	doc := `{
	  "instance": {
	    "nodes": ["s", "t"],
	    "edges": [
	      {"from": "s", "to": "t", "latency": {"kind": "linear", "slope": 1}},
	      {"from": "s", "to": "t", "latency": {"kind": "constant", "c": 1}}
	    ],
	    "commodities": [{"source": "s", "sink": "t", "demand": 1}]
	  },
	  "policy": {"kind": "uniform"},
	  "updatePeriod": 0.25,
	  "maxPhases": 8
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	// maxPhases converts to horizon = maxPhases·T.
	if sc.Horizon != 8*0.25 {
		t.Errorf("horizon = %g, want 2", sc.Horizon)
	}
	if sc.Instance.NumPaths() != 2 {
		t.Errorf("paths = %d", sc.Instance.NumPaths())
	}
}

func TestBestResponseNeedsNoPolicy(t *testing.T) {
	doc := `{
	  "topology": {"family": "kink", "beta": 4},
	  "engine": {"kind": "bestresponse"},
	  "updatePeriod": 0.5,
	  "horizon": 5
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.Engine.(engine.BestResponse); !ok {
		t.Errorf("engine = %T", sc.Engine)
	}
	if _, err := engine.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
}

func TestStartDistributions(t *testing.T) {
	for _, start := range []string{"", "uniform", "worst", "skewed"} {
		doc := `{
		  "topology": {"family": "pigou"},
		  "policy": {"kind": "uniform"},
		  "updatePeriod": 0.25,
		  "horizon": 1,
		  "start": "` + start + `"}`
		doc = strings.Replace(doc, `"start": ""`, `"name": "default"`, 1)
		s, err := Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("start %q: %v", start, err)
		}
		sc, err := s.Scenario()
		if err != nil {
			t.Fatalf("start %q: %v", start, err)
		}
		sum := 0.0
		for _, f := range sc.InitialFlow {
			sum += f
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("start %q: initial flow mass %g, want 1", start, sum)
		}
	}
}

func TestSeededTopology(t *testing.T) {
	doc := `{
	  "topology": {"family": "layered", "size": 2},
	  "seed": 99,
	  "policy": {"kind": "uniform"},
	  "updatePeriod": 0.1,
	  "horizon": 1
	}`
	a, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := a.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := a.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	la := sa.Instance.PathLatencies(sa.Instance.UniformFlow())
	lb := sb.Instance.PathLatencies(sb.Instance.UniformFlow())
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("seeded topology not deterministic: %v vs %v", la, lb)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]string{
		"nothing selected": `{"policy": {"kind": "uniform"}, "horizon": 1}`,
		"both selected":    `{"topology": {"family": "pigou"}, "instance": {"nodes": ["s","t"], "edges": [{"from":"s","to":"t","latency":{"kind":"constant"}}], "commodities": [{"source":"s","sink":"t","demand":1}]}, "policy": {"kind": "uniform"}, "horizon": 1}`,
		"bad family":       `{"topology": {"family": "moebius"}, "policy": {"kind": "uniform"}, "horizon": 1}`,
		"bad policy":       `{"topology": {"family": "pigou"}, "policy": {"kind": "psychic"}, "horizon": 1}`,
		"missing policy":   `{"topology": {"family": "pigou"}, "horizon": 1}`,
		"safe without policy": `{"topology": {"family": "kink", "beta": 4},
		  "engine": {"kind": "bestresponse"}, "horizon": 1}`,
		"no budget":          `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}}`,
		"negative phases":    `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1, "maxPhases": -1}`,
		"negative record":    `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1, "recordEvery": -1}`,
		"negative streak":    `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1, "streak": -1}`,
		"negative eps":       `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1, "delta": 0.1, "eps": -1}`,
		"bad engine":         `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1, "engine": {"kind": "warpdrive"}}`,
		"agents without n":   `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1, "engine": {"kind": "agents"}}`,
		"bad start":          `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1, "start": "sideways"}`,
		"bad period":         `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1, "updatePeriod": -1}`,
		"unknown field":      `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1, "bogus": 1}`,
		"malformed instance": `{"instance": {"nodes": [], "bogus": 1}, "policy": {"kind": "uniform"}, "horizon": 1}`,
		"bad json":           `{`,
		"bad timeline schedule": `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1,
		  "timeline": {"schedules": [{"kind": "lunar"}]}}`,
		"bad timeline event": `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1,
		  "timeline": {"events": [{"at": -1, "action": "restore", "edge": 0}]}}`,
		"bad timeline toll": `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 1,
		  "timeline": {"tolls": [{"kind": "constant", "amount": -1}]}}`,
	}
	for name, doc := range cases {
		_, err := Parse(strings.NewReader(doc))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrBadScenario) {
			t.Errorf("%s: error %v does not wrap ErrBadScenario", name, err)
		}
	}
}

// The run-shape checks a scenario file shares with a campaign (and so with a
// task spec) must reject the same values with the same message after each
// front end's sentinel.
func TestShapeChecksMatchCampaign(t *testing.T) {
	for _, shape := range []string{
		`"maxPhases": 0`,
		`"horizon": 1, "maxPhases": -1`,
		`"horizon": 1, "streak": -1`,
		`"horizon": 1, "delta": 0.1, "eps": -1`,
		`"horizon": 1, "start": "sideways"`,
	} {
		_, serr := Parse(strings.NewReader(`{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "updatePeriod": 1, ` + shape + `}`))
		_, cerr := sweep.ParseCampaign(strings.NewReader(`{"topologies": [{"family": "pigou"}], "policies": [{"kind": "uniform"}], "updatePeriods": [1], ` + shape + `}`))
		if serr == nil || cerr == nil {
			t.Errorf("%s: scenario error %v, campaign error %v; want both rejected", shape, serr, cerr)
			continue
		}
		smsg, _ := strings.CutPrefix(serr.Error(), ErrBadScenario.Error())
		cmsg, _ := strings.CutPrefix(cerr.Error(), sweep.ErrBadCampaign.Error())
		if smsg != cmsg {
			t.Errorf("%s: scenario says %q, campaign %q", shape, serr, cerr)
		}
	}
}

// A structurally valid but unbuildable instance document (decodes fine,
// fails construction) surfaces at Scenario() time, wrapped in the package
// sentinel.
func TestUnbuildableInstanceFailsAtScenario(t *testing.T) {
	doc := `{"instance": {"nodes": ["s"], "edges": [], "commodities": []}, "policy": {"kind": "uniform"}, "horizon": 1}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scenario(); !errors.Is(err, ErrBadScenario) {
		t.Errorf("Scenario() err = %v, want ErrBadScenario", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := &Spec{
		Name:         "rt",
		Topology:     &sweep.Topology{Family: "links", Size: 4},
		Policy:       &sweep.PolicySpec{Kind: "boltzmann", C: 2},
		UpdatePeriod: &sweep.Period{T: 0.5},
		Engine:       &engine.Spec{Kind: "agents", N: 100, Seed: 7},
		Start:        "skewed",
		Horizon:      5,
		RecordEvery:  1,
		Delta:        0.2,
		Eps:          0.1,
		Streak:       3,
	}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, data)
	}
	if back.Topology.Family != "links" || back.Policy.C != 2 || back.Engine.N != 100 || back.UpdatePeriod.T != 0.5 {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

const onsetScenario = `{
  "name": "braess-onset",
  "topology": {"family": "braess"},
  "policy": {"kind": "uniform"},
  "updatePeriod": 0.25,
  "horizon": 20,
  "timeline": {
    "events": [
      {"at": 0, "action": "block", "from": "a", "to": "b", "penalty": 4},
      {"at": 10, "action": "restore", "from": "a", "to": "b"}
    ]
  }
}`

// A timeline with schedules or events needs segmented execution: Scenario()
// must refuse it (wrapping the package sentinel), while Run executes it and
// returns the replayed events.
func TestTimelineNeedsRun(t *testing.T) {
	s, err := Parse(strings.NewReader(onsetScenario))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scenario(); err == nil || !errors.Is(err, ErrBadScenario) {
		t.Fatalf("Scenario() on a segmented timeline returned %v, want ErrBadScenario", err)
	}
	var seen int
	res, events, err := s.Run(context.Background(), func(timeline.AppliedEvent) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || seen != 2 {
		t.Fatalf("replayed %d events (callback saw %d), want 2", len(events), seen)
	}
	if res.Elapsed != 20 {
		t.Fatalf("elapsed %g, want 20", res.Elapsed)
	}
}

// Tolls alone do not need a program: Scenario() materialises the tolled
// instance directly, and Run on such a spec equals engine.Run on it.
func TestTimelineTollsOnlyScenario(t *testing.T) {
	doc := `{"topology": {"family": "pigou"}, "policy": {"kind": "replicator"}, "updatePeriod": "safe",
	  "maxPhases": 20, "timeline": {"tolls": [{"kind": "marginal"}]}}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	// Pigou edge 0 is ℓ(x) = x: the marginal toll doubles it.
	if got := sc.Instance.Latency(0).Value(1); got != 2 {
		t.Fatalf("tolled pigou latency(1) = %g, want 2", got)
	}
	want, err := engine.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	got, events, err := s.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("tolls-only run replayed %d events, want 0", len(events))
	}
	if got.FinalPotential != want.FinalPotential || got.Phases != want.Phases {
		t.Fatalf("Run diverged from engine.Run: Φ %g vs %g", got.FinalPotential, want.FinalPotential)
	}
}

// A timeline-bearing spec must fingerprint differently from its stationary
// counterpart (the cache key covers the timeline), while a stationary spec
// with an explicit empty timeline... keeps its historical fingerprint only
// when the field is omitted — JSON omitempty drops nil, not empty objects,
// and an empty object is not a meaningful document.
func TestTimelineFingerprintDistinct(t *testing.T) {
	stationary := parseSpec(t, braessScenario)
	varying, err := Parse(strings.NewReader(onsetScenario))
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := stationary.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := varying.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Fatal("timeline-bearing spec fingerprints like a stationary one")
	}
}

// TestFrontEndsRunTheSameCell runs one cell through both declarative front
// ends — a sweep task spec through sweep.RunTaskSpec and the equivalent
// scenario file through Spec.Run — for every engine a campaign selects and
// three timelines (stationary, tolls only, schedule plus event). Both resolve
// the run through sweep.Bind, so they must agree bit for bit.
func TestFrontEndsRunTheSameCell(t *testing.T) {
	const (
		cell   = `"topology": {"family": "braess"}, "policy": {"kind": "replicator"}, "maxPhases": 30, "delta": 0.2, "eps": 0.1, "streak": 5`
		period = `"safe"` // Corollary 5 on Braess: T = 1/6, a 5-unit horizon
	)
	engines := []struct{ name, task, engine string }{
		{"fluid", `"agents": 0`, `{"kind": "fluid", "integrator": "uniformization"}`},
		{"agents", `"agents": 300`, `{"kind": "agents", "n": 300, "seed": 11, "workers": 1}`},
		{"count", `"count": 100000`, `{"kind": "count", "n": 100000, "seed": 11}`},
	}
	timelines := []struct{ name, doc string }{
		{"stationary", ``},
		{"tolls", `, "timeline": {"tolls": [{"kind": "marginal"}]}`},
		{"schedule+event", `, "timeline": {
		  "schedules": [{"kind": "pwl", "times": [0, 2], "factors": [1, 0.5]}],
		  "events": [{"at": 1, "action": "block", "from": "a", "to": "b", "penalty": 4}]}`},
	}
	for _, e := range engines {
		for _, tl := range timelines {
			t.Run(e.name+"/"+tl.name, func(t *testing.T) {
				ts, err := sweep.ParseTaskSpec(strings.NewReader(`{` + cell + `, "period": ` + period + `, "seed": 11, ` + e.task + tl.doc + `}`))
				if err != nil {
					t.Fatal(err)
				}
				rec, aborted := sweep.RunTaskSpec(context.Background(), ts, nil, nil)
				if aborted || rec.Error != "" {
					t.Fatalf("task spec: aborted %v, error %q", aborted, rec.Error)
				}
				s := parseSpec(t, `{`+cell+`, "updatePeriod": `+period+`, "engine": `+e.engine+tl.doc+`}`)
				res, _, err := s.Run(context.Background(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Phases != res.Phases || rec.UnsatisfiedPhases != res.UnsatisfiedPhases || rec.Converged != res.Stopped ||
					math.Float64bits(rec.FinalPotential) != math.Float64bits(res.FinalPotential) ||
					math.Float64bits(rec.ElapsedSim) != math.Float64bits(res.Elapsed) {
					t.Fatalf("task record phases=%d unsatisfied=%d converged=%v Φ=%v elapsed=%v; scenario phases=%d unsatisfied=%d stopped=%v Φ=%v elapsed=%v",
						rec.Phases, rec.UnsatisfiedPhases, rec.Converged, rec.FinalPotential, rec.ElapsedSim,
						res.Phases, res.UnsatisfiedPhases, res.Stopped, res.FinalPotential, res.Elapsed)
				}
				if s.Timeline.NeedsProgram() {
					return
				}
				sc, err := s.Scenario()
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(rec.T) != math.Float64bits(sc.UpdatePeriod) {
					t.Fatalf("task record T = %v, scenario period %v", rec.T, sc.UpdatePeriod)
				}
			})
		}
	}
}
