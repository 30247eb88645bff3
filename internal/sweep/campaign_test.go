package sweep

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

const demoCampaign = `{
  "name": "demo",
  "topologies": [
    {"family": "links", "size": 4},
    {"family": "pigou"}
  ],
  "policies": [{"kind": "uniform"}, {"kind": "replicator"}],
  "updatePeriods": ["safe", 0.25],
  "agents": [0],
  "seeds": 2,
  "baseSeed": 7,
  "maxPhases": 50,
  "delta": 0.3,
  "eps": 0.15,
  "streak": 10
}`

func parseDemo(t *testing.T) *Campaign {
	t.Helper()
	c, err := ParseCampaign(strings.NewReader(demoCampaign))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExpandDeterministic(t *testing.T) {
	c := parseDemo(t)
	a, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 topologies x 2 policies x 2 periods x 1 agents x 2 seeds.
	if len(a) != 16 {
		t.Fatalf("tasks = %d, want 16", len(a))
	}
	for i := range a {
		if a[i].ID != i {
			t.Errorf("task %d has ID %d", i, a[i].ID)
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("expansion not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Seeds pair replicates across cells: tasks sharing (topology,
	// SeedIndex) draw the same seed whatever the policy/period, so seeded
	// instance families are compared on identical random graphs; distinct
	// replicates and distinct topologies draw distinct seeds.
	byPair := make(map[string]uint64)
	for _, tk := range a {
		pair := fmt.Sprintf("%s#%d", tk.Topology.Key(), tk.SeedIndex)
		if prev, ok := byPair[pair]; ok {
			if prev != tk.Seed {
				t.Errorf("pair %s drew different seeds %d, %d", pair, prev, tk.Seed)
			}
		} else {
			byPair[pair] = tk.Seed
		}
	}
	seen := make(map[uint64]string)
	for pair, seed := range byPair {
		if other, ok := seen[seed]; ok {
			t.Errorf("pairs %s and %s share seed %d", pair, other, seed)
		}
		seen[seed] = pair
	}
}

func TestExpandSeedsIndependentOfAxisOrder(t *testing.T) {
	// A task's derived seed is a function of (baseSeed, topology,
	// seedIndex) only, so shrinking an axis must not change the seeds of
	// the tasks that keep their position.
	c := parseDemo(t)
	full, _ := c.Expand()
	c.Topologies = c.Topologies[:1]
	short, _ := c.Expand()
	for i := range short {
		if short[i].Seed != full[i].Seed {
			t.Errorf("task %d seed changed after axis shrink: %d vs %d", i, short[i].Seed, full[i].Seed)
		}
	}
}

func TestParseCampaignErrors(t *testing.T) {
	cases := map[string]string{
		"empty topologies":  `{"topologies": [], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1}`,
		"empty policies":    `{"topologies": [{"family":"pigou"}], "policies": [], "updatePeriods": [1], "horizon": 1}`,
		"no periods":        `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [], "horizon": 1}`,
		"bad period":        `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [-1], "horizon": 1}`,
		"period word":       `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": ["soon"], "horizon": 1}`,
		"bad family":        `{"topologies": [{"family":"moebius"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1}`,
		"bad kind":          `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"psychic"}], "updatePeriods": [1], "horizon": 1}`,
		"negative c":        `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"boltzmann","c":-1}], "updatePeriods": [1], "horizon": 1}`,
		"bad migrator":      `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform","migrator":"teleport"}], "updatePeriods": [1], "horizon": 1}`,
		"no budget":         `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1]}`,
		"bad start":         `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1, "start": "sideways"}`,
		"negative agents":   `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1, "agents": [-1]}`,
		"agents over cap":   `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1, "agents": [16777217]}`,
		"zero count":        `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1, "counts": [0]}`,
		"count over 2^53":   `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1, "counts": [1e16]}`,
		"unknown field":     `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1, "bogus": true}`,
		"links too small":   `{"topologies": [{"family":"links","size":1}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1}`,
		"negative layers":   `{"topologies": [{"family":"layered","size":3,"layers":-2}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1}`,
		"custom no doc":     `{"topologies": [{"family":"custom"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1}`,
		"negative eps":      `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1, "delta": 0.1, "eps": -1}`,
		"negative eps axis": `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1, "deltas": [0.1], "eps": -1}`,
		"negative streak":   `{"topologies": [{"family":"pigou"}], "policies": [{"kind":"uniform"}], "updatePeriods": [1], "horizon": 1, "streak": -1}`,
	}
	for name, doc := range cases {
		if _, err := ParseCampaign(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrBadCampaign) && name != "custom no doc" {
			t.Errorf("%s: error %v does not wrap ErrBadCampaign", name, err)
		}
	}
}

// TestValidateRejectsBadAxisValues covers axis values no JSON document can
// carry, so only a campaign built in Go reaches Validate with them.
func TestValidateRejectsBadAxisValues(t *testing.T) {
	cases := map[string]func(*Campaign){
		"NaN delta":       func(c *Campaign) { c.Deltas = []float64{math.NaN()} },
		"NaN period":      func(c *Campaign) { c.UpdatePeriods = []Period{{T: math.NaN()}} },
		"negative period": func(c *Campaign) { c.UpdatePeriods = []Period{{T: -1}} },
		"zero period":     func(c *Campaign) { c.UpdatePeriods = []Period{{}} },
	}
	for name, edit := range cases {
		c := parseDemo(t)
		edit(c)
		if err := c.Validate(); !errors.Is(err, ErrBadCampaign) {
			t.Errorf("%s: Validate = %v, want ErrBadCampaign", name, err)
		}
	}
}

func TestCustomTopologyBuilds(t *testing.T) {
	doc := `{
	  "name": "custom",
	  "topologies": [{"family": "custom", "instance": {
	    "nodes": ["s", "t"],
	    "edges": [
	      {"from": "s", "to": "t", "latency": {"kind": "linear", "slope": 1}},
	      {"from": "s", "to": "t", "latency": {"kind": "constant", "c": 1}}
	    ],
	    "commodities": [{"source": "s", "sink": "t", "demand": 1}]
	  }}],
	  "policies": [{"kind": "uniform"}],
	  "updatePeriods": ["safe"],
	  "horizon": 5
	}`
	c, err := ParseCampaign(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.Topologies[0].Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumPaths() != 2 {
		t.Errorf("paths = %d, want 2", inst.NumPaths())
	}
}

func TestPeriodRoundTrip(t *testing.T) {
	c := parseDemo(t)
	if !c.UpdatePeriods[0].Safe || c.UpdatePeriods[1].T != 0.25 {
		t.Fatalf("periods = %+v", c.UpdatePeriods)
	}
	if c.UpdatePeriods[0].String() != "safe" || c.UpdatePeriods[1].String() != "0.25" {
		t.Errorf("period labels = %q, %q", c.UpdatePeriods[0], c.UpdatePeriods[1])
	}
	b, err := c.UpdatePeriods[0].MarshalJSON()
	if err != nil || string(b) != `"safe"` {
		t.Errorf("marshal safe = %s, %v", b, err)
	}
}
