package graph_test

import (
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/tntp"
	"wardrop/internal/topo"
)

const (
	siouxNet   = "../tntp/testdata/siouxfalls_net.tntp"
	siouxTrips = "../tntp/testdata/siouxfalls_trips.tntp"
)

// freeFlow is the weight flow.WithKShortestPaths ranks paths by.
func freeFlow(inst *flow.Instance) graph.WeightFunc {
	return func(e graph.EdgeID) float64 { return inst.Latency(e).Value(0) + 1e-9 }
}

// checkInstanceParity requires every commodity's path set to be exactly
// the oracle's k shortest free-flow paths, edge for edge and in order.
func checkInstanceParity(t *testing.T, inst *flow.Instance, k int) {
	t.Helper()
	w := freeFlow(inst)
	for i := 0; i < inst.NumCommodities(); i++ {
		c := inst.Commodity(i)
		want, err := graph.OracleKShortestPaths(inst.Graph(), c.Source, c.Sink, k, w)
		if err != nil {
			t.Fatalf("commodity %d: oracle: %v", i, err)
		}
		got := inst.Paths(i)
		if len(got) != len(want) {
			t.Fatalf("commodity %d: %d paths, oracle %d", i, len(got), len(want))
		}
		for j := range want {
			if !got[j].Equal(want[j]) {
				t.Fatalf("commodity %d path %d = %v, oracle %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestParitySiouxFalls(t *testing.T) {
	for _, k := range []int{8, 16} {
		inst, err := tntp.Load(siouxNet, siouxTrips, tntp.Options{KPaths: k})
		if err != nil {
			t.Fatal(err)
		}
		if n := inst.NumCommodities(); n != 528 {
			t.Fatalf("k=%d: %d OD pairs, want 528", k, n)
		}
		checkInstanceParity(t, inst, k)
	}
}

func TestParityLargeFamilies(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		sr, err := topo.SparseRandom(10_000, 4, 4, 12, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkInstanceParity(t, sr, 12)
		sf, err := topo.ScaleFree(10_000, 3, 4, 12, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkInstanceParity(t, sf, 12)
	}
}

var benchPaths []graph.Path

// BenchmarkKShortestPaths times the strategy-set search of one 10⁴-edge
// sparse-random commodity (k = 12) and of all 528 Sioux Falls OD pairs
// (k = 8), each from a fresh call as the instance builder makes it.
func BenchmarkKShortestPaths(b *testing.B) {
	b.Run("sparse-random/1e4", func(b *testing.B) {
		inst, err := topo.SparseRandom(10_000, 4, 1, 12, 1)
		if err != nil {
			b.Fatal(err)
		}
		c, g, w := inst.Commodity(0), inst.Graph(), freeFlow(inst)
		for b.Loop() {
			if benchPaths, err = g.KShortestPaths(c.Source, c.Sink, 12, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("siouxfalls/k8", func(b *testing.B) {
		inst, err := tntp.Load(siouxNet, siouxTrips, tntp.Options{KPaths: 8})
		if err != nil {
			b.Fatal(err)
		}
		g, w := inst.Graph(), freeFlow(inst)
		for b.Loop() {
			for i := 0; i < inst.NumCommodities(); i++ {
				c := inst.Commodity(i)
				if benchPaths, err = g.KShortestPaths(c.Source, c.Sink, 8, w); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
