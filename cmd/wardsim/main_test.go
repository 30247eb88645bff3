package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wardrop"
	"wardrop/internal/engine"
)

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-topo", "moebius"},
		{"-policy", "psychic"},
		{"-T", "-3"},
		{"-T", "soon"},
		{"-instance", "/nonexistent/file.json"},
		{"-scenario", "/nonexistent/file.json"},
		{"-nonsense-flag"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunShapeFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-horizon", "0"}, "-horizon"},
		{[]string{"-horizon", "-5"}, "-horizon"},
		{[]string{"-horizon", "NaN"}, "-horizon"},
		{[]string{"-horizon", "Inf"}, "-horizon"},
		{[]string{"-T", "NaN"}, "period"},
		{[]string{"-T", "Inf"}, "period"},
		{[]string{"-every", "0"}, "-every"},
		{[]string{"-every", "-2"}, "-every"},
		{[]string{"-agents", "-1"}, "-agents"},
		{[]string{"-agents", "16777217"}, "-count"},
		{[]string{"-count", "-1"}, "-count"},
		{[]string{"-agents", "100", "-count", "100"}, "-count"},
	}
	for _, c := range cases {
		err := run(context.Background(), c.args, io.Discard)
		if err == nil {
			t.Errorf("args %v accepted", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not name %s", c.args, err, c.want)
		}
	}
}

func TestRunFluidSmoke(t *testing.T) {
	if err := run(context.Background(), []string{"-topo", "pigou", "-policy", "replicator", "-horizon", "2", "-every", "4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// The kink demo is the one flag run no document can express: it starts on
// the §3.2 periodic orbit.
func TestRunBestResponseSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-topo", "kink", "-beta", "8", "-policy", "bestresponse", "-T", "0.5", "-horizon", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	f1, _, _ := wardrop.TwoLinkOscillation(8, 0.5, 0)
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 2 {
		t.Fatalf("no trajectory emitted:\n%s", out.String())
	}
	if got := strings.Split(lines[1], ","); len(got) != 4 || got[0] != "0" || got[2] != fmt.Sprintf("%g", f1) {
		t.Errorf("first sample %q, want t=0 with f1=%v", lines[1], f1)
	}
}

func TestRunAgentsSmoke(t *testing.T) {
	if err := run(context.Background(), []string{"-topo", "braess", "-policy", "uniform", "-horizon", "2", "-agents", "50"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunCountSmoke(t *testing.T) {
	// A million agents through the count engine finishes in test time.
	if err := run(context.Background(), []string{"-topo", "braess", "-policy", "uniform", "-horizon", "2", "-count", "1000000"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunBoltzmannSmoke(t *testing.T) {
	if err := run(context.Background(), []string{"-topo", "links", "-m", "4", "-policy", "boltzmann", "-c", "2", "-horizon", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// twoLinkInstance is Pigou's network as an instance document.
const twoLinkInstance = `{
  "nodes": ["s", "t"],
  "edges": [
    {"from": "s", "to": "t", "latency": {"kind": "linear", "slope": 1}},
    {"from": "s", "to": "t", "latency": {"kind": "constant", "c": 1}}
  ],
  "commodities": [{"source": "s", "sink": "t", "demand": 1}]
}`

func TestRunInstanceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := os.WriteFile(path, []byte(twoLinkInstance), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-instance", path, "-horizon", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Malformed file surfaces a spec error.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-instance", bad}, io.Discard); err == nil || !strings.Contains(err.Error(), "spec") {
		t.Errorf("bad instance error = %v", err)
	}
}

// The flags are shorthand for a scenario document: each flag run must print
// exactly what its document prints through -scenario.
func TestScenarioReproducesFlagRun(t *testing.T) {
	instPath := filepath.Join(t.TempDir(), "inst.json")
	if err := os.WriteFile(instPath, []byte(twoLinkInstance), 0o644); err != nil {
		t.Fatal(err)
	}
	const fluid = `"engine": {"kind": "fluid", "integrator": "uniformization"}`
	cases := []struct {
		name string
		args []string
		doc  string
	}{
		{"fluid-safe", []string{"-topo", "braess", "-policy", "replicator", "-T", "safe"},
			`"topology": {"family": "braess"}, "policy": {"kind": "replicator"}, "updatePeriod": "safe", ` + fluid},
		{"fluid-number", []string{"-topo", "pigou", "-policy", "replicator", "-T", "0.1"},
			`"topology": {"family": "pigou"}, "policy": {"kind": "replicator"}, "updatePeriod": 0.1, ` + fluid},
		{"bestresponse-number", []string{"-topo", "braess", "-policy", "bestresponse", "-T", "0.25"},
			`"topology": {"family": "braess"}, "updatePeriod": 0.25, "engine": {"kind": "bestresponse"}`},
		// Under best response, "safe" means 0.5.
		{"bestresponse-safe", []string{"-topo", "braess", "-policy", "bestresponse", "-T", "safe"},
			`"topology": {"family": "braess"}, "updatePeriod": 0.5, "engine": {"kind": "bestresponse"}`},
		{"boltzmann", []string{"-topo", "links", "-m", "4", "-policy", "boltzmann", "-c", "2", "-T", "0.25"},
			`"topology": {"family": "links", "size": 4}, "policy": {"kind": "boltzmann", "c": 2}, "updatePeriod": 0.25, ` + fluid},
		{"layered-seed", []string{"-topo", "layered", "-m", "3", "-seed", "7"},
			`"topology": {"family": "layered", "size": 3}, "seed": 7, "policy": {"kind": "replicator"}, ` + fluid},
		{"instance", []string{"-instance", instPath, "-policy", "uniform", "-T", "0.5"},
			`"instance": ` + twoLinkInstance + `, "policy": {"kind": "uniform"}, "updatePeriod": 0.5, ` + fluid},
		// -instance replaces -topo, so the kink demo's orbit start does not apply.
		{"instance-kink", []string{"-instance", instPath, "-topo", "kink", "-policy", "bestresponse", "-T", "0.5"},
			`"instance": ` + twoLinkInstance + `, "updatePeriod": 0.5, "engine": {"kind": "bestresponse"}`},
		{"agents", []string{"-topo", "links", "-m", "16", "-policy", "uniform", "-agents", "1000"},
			`"topology": {"family": "links", "size": 16}, "policy": {"kind": "uniform"}, "engine": {"kind": "agents", "n": 1000, "seed": 1}`},
		// 1000 agents over 16 paths: the uniform start's rounding drift shows.
		{"count", []string{"-topo", "links", "-m", "16", "-policy", "uniform", "-count", "1000"},
			`"topology": {"family": "links", "size": 16}, "policy": {"kind": "uniform"}, "engine": {"kind": "count", "n": 1000, "seed": 1}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var flags bytes.Buffer
			if err := run(context.Background(), append(c.args, "-horizon", "5", "-every", "2"), &flags); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "scenario.json")
			doc := "{" + c.doc + `, "horizon": 5, "recordEvery": 2}`
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			var scen bytes.Buffer
			if err := run(context.Background(), []string{"-scenario", path}, &scen); err != nil {
				t.Fatal(err)
			}
			if flags.String() != scen.String() {
				t.Errorf("scenario output differs from flag-driven run:\nflags:\n%s\nscenario:\n%s", flags.String(), scen.String())
			}
		})
	}
}

func TestScenarioAgentsSmoke(t *testing.T) {
	doc := `{
	  "topology": {"family": "links", "size": 4},
	  "policy": {"kind": "uniform"},
	  "updatePeriod": 0.25,
	  "engine": {"kind": "agents", "n": 50, "seed": 7},
	  "horizon": 2,
	  "recordEvery": 1
	}`
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "time,potential") {
		t.Errorf("no trajectory emitted:\n%s", out.String())
	}
}

func TestScenarioRejectsBadDocs(t *testing.T) {
	cases := map[string]string{
		"no selection":   `{"policy": {"kind": "uniform"}, "horizon": 5}`,
		"both selectors": `{"topology": {"family": "pigou"}, "instance": {"nodes": []}, "policy": {"kind": "uniform"}, "horizon": 5}`,
		"no policy":      `{"topology": {"family": "pigou"}, "horizon": 5}`,
		"no budget":      `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}}`,
		"unknown field":  `{"topology": {"family": "pigou"}, "policy": {"kind": "uniform"}, "horizon": 5, "bogus": 1}`,
		"bad family":     `{"topology": {"family": "moebius"}, "policy": {"kind": "uniform"}, "horizon": 5}`,
	}
	for name, doc := range cases {
		path := filepath.Join(t.TempDir(), "scenario.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), []string{"-scenario", path}, io.Discard); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// -list prints the registered catalog: every builtin component family must
// appear under its kind heading.
func TestListPrintsBuiltinCatalog(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, kind := range []string{"latency:", "topology:", "policy:", "migrator:", "engine:", "integrator:", "start:"} {
		if !strings.Contains(s, kind) {
			t.Errorf("-list output missing kind %q", kind)
		}
	}
	for _, name := range []string{
		"constant", "linear", "polynomial", "monomial", "bpr", "mm1", "pwl", "kink",
		"pigou", "braess", "links", "grid", "layered", "sparse-random", "scalefree", "tntp", "custom",
		"uniform", "replicator", "proportional", "boltzmann",
		"alphalinear", "betterresponse",
		"fluid", "fresh", "bestresponse", "agents", "count",
		"euler", "rk4", "uniformization",
		"worst", "skewed",
	} {
		if !strings.Contains(s, "  "+name+"(") {
			t.Errorf("-list output missing builtin %q", name)
		}
	}
}

// A cancelled context (the SIGINT path) still flushes the partial
// trajectory and surfaces context.Canceled instead of dying mid-write.
func TestRunCancelledContextFlushesPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-topo", "pigou", "-policy", "replicator", "-horizon", "50"}, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A run that blows up must fail, not print a trajectory of NaN or overflowed
// flows and exit 0: Pigou at a period 10³ beyond the safe one overflows RK4,
// and Sioux Falls' "safe" period (β read from slopes on [0, 1] against its
// real demand) turns every flow to NaN.
func TestScenarioDivergenceFails(t *testing.T) {
	docs := map[string]string{
		"pigou": `{
		  "topology": {"family": "pigou"},
		  "policy": {"kind": "replicator"},
		  "updatePeriod": 1000,
		  "horizon": 3000,
		  "recordEvery": 1
		}`,
		"siouxfalls": `{
		  "topology": {"family": "tntp", "params": {
		    "net": "../../internal/tntp/testdata/siouxfalls_net.tntp",
		    "trips": "../../internal/tntp/testdata/siouxfalls_trips.tntp",
		    "kpaths": 8}},
		  "policy": {"kind": "replicator"},
		  "updatePeriod": "safe",
		  "maxPhases": 12,
		  "recordEvery": 4
		}`,
	}
	for name, doc := range docs {
		path := filepath.Join(t.TempDir(), "scenario.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run(context.Background(), []string{"-scenario", path}, &out)
		if !errors.Is(err, engine.ErrDiverged) {
			t.Errorf("%s: err = %v, want ErrDiverged", name, err)
		}
		if strings.Contains(out.String(), "time,potential") {
			t.Errorf("%s: diverged run printed a trajectory:\n%s", name, out.String())
		}
	}
}

func TestParsePeriod(t *testing.T) {
	if v, err := parsePeriod("safe"); err != nil || v != (wardrop.CampaignPeriod{Safe: true}) {
		t.Errorf("safe = %+v, %v", v, err)
	}
	if v, err := parsePeriod("0.5"); err != nil || v != (wardrop.CampaignPeriod{T: 0.5}) {
		t.Errorf("number = %+v, %v", v, err)
	}
	if _, err := parsePeriod("0"); err == nil {
		t.Error("zero period accepted")
	}
}

func TestBestResponseRejectsAgents(t *testing.T) {
	err := run(context.Background(), []string{"-topo", "kink", "-policy", "bestresponse", "-agents", "100", "-horizon", "2"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-agents") {
		t.Fatalf("bestresponse+agents accepted: %v", err)
	}
	err = run(context.Background(), []string{"-topo", "kink", "-policy", "bestresponse", "-count", "100", "-horizon", "2"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-count") {
		t.Fatalf("bestresponse+count accepted: %v", err)
	}
}

// -json emits the canonical result document — the exact bytes the serving
// layer returns for the same spec (the library encoder is the shared
// implementation, so comparing against it pins the contract).
func TestScenarioJSONMatchesLibraryEncoder(t *testing.T) {
	doc := `{
	  "name": "json-golden",
	  "topology": {"family": "pigou"},
	  "policy": {"kind": "replicator"},
	  "updatePeriod": 0.05,
	  "maxPhases": 40,
	  "recordEvery": 10
	}`
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", path, "-json"}, &got); err != nil {
		t.Fatal(err)
	}

	spec, err := wardrop.ParseScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, events, err := spec.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := wardrop.EncodeRunResult(&want, spec, res, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("-json output differs from the library encoder:\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
	}
	if !strings.Contains(got.String(), `"fingerprint":"`) {
		t.Fatalf("result document lacks a fingerprint: %s", got.String())
	}
}

func TestJSONRequiresScenario(t *testing.T) {
	err := run(context.Background(), []string{"-topo", "pigou", "-json", "-horizon", "2"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-scenario") {
		t.Fatalf("-json without -scenario accepted: %v", err)
	}
}

// TestTraceFlagWritesJSONL pins the -trace contract: one well-formed JSON
// span per line, phase spans on every run path, and — through a timeline
// scenario — event spans marking each applied edge event.
func TestTraceFlagWritesJSONL(t *testing.T) {
	dir := t.TempDir()

	flagTrace := filepath.Join(dir, "flags.jsonl")
	args := []string{"-topo", "braess", "-policy", "replicator", "-horizon", "2", "-trace", flagTrace}
	if err := run(context.Background(), args, io.Discard); err != nil {
		t.Fatal(err)
	}
	phases, events := readTrace(t, flagTrace)
	if phases == 0 || events != 0 {
		t.Fatalf("flag run: %d phase spans, %d event spans; want >0 phases and no events", phases, events)
	}

	doc := `{
	  "topology": {"family": "braess"},
	  "policy": {"kind": "uniform"},
	  "updatePeriod": 0.25,
	  "horizon": 4,
	  "timeline": {
	    "events": [
	      {"at": 0, "action": "block", "from": "a", "to": "b", "penalty": 4},
	      {"at": 2, "action": "restore", "from": "a", "to": "b"}
	    ]
	  }
	}`
	scenPath := filepath.Join(dir, "onset.json")
	if err := os.WriteFile(scenPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	scenTrace := filepath.Join(dir, "scenario.jsonl")
	if err := run(context.Background(), []string{"-scenario", scenPath, "-trace", scenTrace}, io.Discard); err != nil {
		t.Fatal(err)
	}
	phases, events = readTrace(t, scenTrace)
	if phases == 0 || events != 2 {
		t.Fatalf("scenario run: %d phase spans, %d event spans; want >0 phases and 2 events", phases, events)
	}
}

// readTrace parses a trace JSONL file and counts spans by kind, failing on
// any line that is not a well-formed span.
func readTrace(t *testing.T, path string) (phases, events int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var span struct {
			Kind  string   `json:"kind"`
			Time  *float64 `json:"t"`
			Phase *int     `json:"phase"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("line %d: %v (%q)", i+1, err, line)
		}
		switch span.Kind {
		case "phase":
			if span.Time == nil || span.Phase == nil {
				t.Fatalf("line %d: phase span missing t/phase: %q", i+1, line)
			}
			phases++
		case "event":
			if span.Time == nil {
				t.Fatalf("line %d: event span missing t: %q", i+1, line)
			}
			events++
		default:
			t.Fatalf("line %d: unknown span kind %q", i+1, span.Kind)
		}
	}
	return phases, events
}
