package spec

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// sampleLatencies gives one representative document per registered builtin
// latency kind. The round-trip test fails when a registered kind has no
// sample, so new kinds cannot silently escape coverage.
var sampleLatencies = map[string]Latency{
	"constant":   {Kind: "constant", C: 2.5},
	"linear":     {Kind: "linear", Slope: 1.5, Offset: 0.25},
	"polynomial": {Kind: "polynomial", Coeffs: []float64{0.5, 0, 2, 1}},
	"monomial":   {Kind: "monomial", Coef: 3, Degree: 4},
	"bpr":        {Kind: "bpr", FreeTime: 1.2, Capacity: 0.8},
	"mm1":        {Kind: "mm1", Capacity: 2.5},
	"pwl":        {Kind: "pwl", Xs: []float64{0, 0.3, 1}, Ys: []float64{0.1, 0.1, 2}},
	"kink":       {Kind: "kink", Beta: 6},
}

// Every registered latency kind must survive Marshal → Decode → Build with
// identical behavior on a probe grid: the JSON form is a faithful encoding
// of the function, not an approximation of it.
func TestEveryRegisteredLatencyKindRoundTrips(t *testing.T) {
	for _, kind := range latency.Catalog.Names() {
		sample, ok := sampleLatencies[kind]
		if !ok {
			t.Errorf("registered latency kind %q has no round-trip sample; add one", kind)
			continue
		}
		direct, err := sample.Build()
		if err != nil {
			t.Errorf("%s: direct build: %v", kind, err)
			continue
		}
		doc := Instance{
			Nodes: []string{"s", "t"},
			Edges: []Edge{
				{From: "s", To: "t", Latency: sample},
				{From: "s", To: "t", Latency: Latency{Kind: "constant", C: 1}},
			},
			Commodities: []Commodity{{Source: "s", Sink: "t", Demand: 1}},
		}
		data, err := doc.Marshal()
		if err != nil {
			t.Errorf("%s: marshal: %v", kind, err)
			continue
		}
		decoded, err := Decode(strings.NewReader(string(data)))
		if err != nil {
			t.Errorf("%s: decode: %v", kind, err)
			continue
		}
		rebuilt, err := decoded.Edges[0].Latency.Build()
		if err != nil {
			t.Errorf("%s: rebuild: %v", kind, err)
			continue
		}
		for i := 0; i <= 16; i++ {
			x := float64(i) / 16
			if v, w := direct.Value(x), rebuilt.Value(x); v != w {
				t.Errorf("%s: Value(%g) = %g after round trip, want %g", kind, x, w, v)
			}
			if v, w := direct.Derivative(x), rebuilt.Derivative(x); v != w {
				t.Errorf("%s: Derivative(%g) = %g after round trip, want %g", kind, x, w, v)
			}
			if v, w := direct.Integral(x), rebuilt.Integral(x); v != w {
				t.Errorf("%s: Integral(%g) = %g after round trip, want %g", kind, x, w, v)
			}
		}
		if v, w := direct.SlopeBound(), rebuilt.SlopeBound(); v != w {
			t.Errorf("%s: SlopeBound = %g after round trip, want %g", kind, w, v)
		}
	}
}

// The catalog dispatch must agree with the historical direct constructors:
// the builtin names stay byte-compatible wrappers, not near-copies.
func TestCatalogMatchesDirectConstructors(t *testing.T) {
	direct := map[string]latency.Function{
		"constant": latency.Constant{C: 2.5},
		"linear":   latency.Linear{Slope: 1.5, Offset: 0.25},
		"kink":     latency.Kink(6),
	}
	for kind, want := range direct {
		got, err := sampleLatencies[kind].Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := 0; i <= 8; i++ {
			x := float64(i) / 8
			if got.Value(x) != want.Value(x) {
				t.Errorf("%s: Value(%g) = %g, want %g", kind, x, got.Value(x), want.Value(x))
			}
		}
	}
}

// Builtin kinds read a nested "params" object as an override of their flat
// fields, so parameters placed there (the custom-component idiom) configure
// the function instead of silently reading as zero.
func TestBuiltinLatencyAcceptsNestedParams(t *testing.T) {
	doc := `{"kind": "linear", "params": {"slope": 2, "offset": 1}}`
	var l Latency
	if err := json.Unmarshal([]byte(doc), &l); err != nil {
		t.Fatal(err)
	}
	f, err := l.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Value(0.5); got != 2 {
		t.Errorf("Value(0.5) = %g, want 2 (params ignored?)", got)
	}
	// Flat and nested compose, nested winning on conflicts.
	mixed := Latency{Kind: "linear", Slope: 3, Params: json.RawMessage(`{"slope": 2}`)}
	f, err = mixed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Derivative(0); got != 2 {
		t.Errorf("Derivative = %g, want 2 (nested params should override flat)", got)
	}
}

func TestKShortestPathsSpec(t *testing.T) {
	// Diamond with 3 s→t routes; k=2 keeps the two cheapest.
	doc := `{
	  "nodes": ["s", "a", "t"],
	  "edges": [
	    {"from": "s", "to": "t", "latency": {"kind": "constant", "c": 1}},
	    {"from": "s", "to": "t", "latency": {"kind": "constant", "c": 3}},
	    {"from": "s", "to": "a", "latency": {"kind": "constant", "c": 1}},
	    {"from": "a", "to": "t", "latency": {"kind": "constant", "c": 1}}
	  ],
	  "commodities": [{"source": "s", "sink": "t", "demand": 1}],
	  "kShortestPaths": 2
	}`
	inst, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumPaths() != 2 {
		t.Errorf("paths = %d, want 2 (kShortestPaths=2)", inst.NumPaths())
	}
	// The kept strategy space is the two cheapest free-flow routes (cost 1
	// and 2), not the expensive direct link.
	freeFlow := inst.PathLatencies(make([]float64, inst.NumPaths()))
	for _, l := range freeFlow {
		if l > 2+1e-12 {
			t.Errorf("kept a path with free-flow latency %g (want the 2 cheapest)", l)
		}
	}
}

// A commodity from a node to itself has no path to route over: the build
// rejects it whether its strategy space is enumerated or k-shortest.
func TestSourceEqualsSinkRejected(t *testing.T) {
	base := `{
	  "nodes": ["s", "t"],
	  "edges": [{"from": "s", "to": "t", "latency": {"kind": "constant", "c": 1}}],
	  "commodities": [{"source": "s", "sink": "t", "demand": 1}, {"source": "t", "sink": "t", "demand": 1}]`
	for _, doc := range []string{base + `}`, base + `, "kShortestPaths": 2}`} {
		if inst, err := Parse(strings.NewReader(doc)); !errors.Is(err, graph.ErrNoPath) {
			t.Errorf("%s\nbuilt %v, error %v; want graph.ErrNoPath", doc, inst, err)
		}
	}
}

func TestKShortestPathsValidation(t *testing.T) {
	base := `{
	  "nodes": ["s", "t"],
	  "edges": [
	    {"from": "s", "to": "t", "latency": {"kind": "constant", "c": 1}},
	    {"from": "s", "to": "t", "latency": {"kind": "constant", "c": 2}}
	  ],
	  "commodities": [{"source": "s", "sink": "t", "demand": 1}]`
	cases := map[string]string{
		"negative k":          base + `, "kShortestPaths": -1}`,
		"negative maxPathLen": base + `, "maxPathLen": -1}`,
		"both bounds":         base + `, "kShortestPaths": 2, "maxPathLen": 3}`,
	}
	for name, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: error %v does not wrap ErrBadSpec", name, err)
		}
	}
	// Round trip keeps the field.
	s, err := Decode(strings.NewReader(base + `, "kShortestPaths": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.KShortestPaths != 2 {
		t.Errorf("KShortestPaths = %d, want 2", s.KShortestPaths)
	}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "kShortestPaths") {
		t.Errorf("marshal dropped kShortestPaths:\n%s", data)
	}
}
