package flow

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// gridNetwork is an r×c grid with right and down edges (both ways when
// bidirectional) and affine latencies whose free-flow terms take only the
// values 0, 1 and 2, so many paths tie.
func gridNetwork(r, c int, bidirectional bool) (*graph.Graph, []latency.Function) {
	g := graph.New()
	for i := 0; i < r*c; i++ {
		g.MustAddNode(fmt.Sprint(i))
	}
	var lats []latency.Function
	add := func(u, v int) {
		g.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
		lats = append(lats, latency.Linear{Slope: 1, Offset: float64(len(lats) % 3)})
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				add(v, v+1)
				if bidirectional {
					add(v+1, v)
				}
			}
			if i+1 < r {
				add(v, v+c)
				if bidirectional {
					add(v+c, v)
				}
			}
		}
	}
	return g, lats
}

// buildAt builds the instance with GOMAXPROCS set to procs.
func buildAt(procs int, g *graph.Graph, lats []latency.Function, comms []Commodity, opts ...Option) (*Instance, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return NewInstance(g, lats, comms, opts...)
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name          string
		r, c          int
		bidirectional bool
		opts          []Option
	}{
		{"kshortest", 6, 6, true, []Option{WithKShortestPaths(8)}},
		{"enumerated", 4, 4, false, nil},
	}
	for _, tc := range cases {
		g, lats := gridNetwork(tc.r, tc.c, tc.bidirectional)
		n := tc.r * tc.c
		var comms []Commodity
		for i := 0; i < 12; i++ {
			s, d := i%(n/3), n-1-(5*i)%(n/3)
			comms = append(comms, Commodity{Source: graph.NodeID(s), Sink: graph.NodeID(d), Demand: 1 + float64(i)})
		}
		serial, err := buildAt(1, g, lats, comms, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		par, err := buildAt(4, g, lats, comms, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if par.NumPaths() != serial.NumPaths() || par.MaxPathLen() != serial.MaxPathLen() || par.LMax() != serial.LMax() {
			t.Fatalf("%s: GOMAXPROCS 4 built %d paths (D=%d, ℓmax=%v), GOMAXPROCS 1 %d (D=%d, ℓmax=%v)", tc.name,
				par.NumPaths(), par.MaxPathLen(), par.LMax(), serial.NumPaths(), serial.MaxPathLen(), serial.LMax())
		}
		for i := range comms {
			a, b := serial.Paths(i), par.Paths(i)
			if len(a) != len(b) {
				t.Fatalf("%s: commodity %d has %d paths at GOMAXPROCS 4, %d at 1", tc.name, i, len(b), len(a))
			}
			for j := range a {
				if !a[j].Equal(b[j]) {
					t.Fatalf("%s: commodity %d path %d = %v at GOMAXPROCS 4, %v at 1", tc.name, i, j, b[j], a[j])
				}
			}
		}
	}
}

// When several commodities fail, the build reports the lowest-index one,
// whichever goroutine finishes first.
func TestBuildErrorNamesLowestCommodity(t *testing.T) {
	g, lats := gridNetwork(4, 4, false)
	ok := Commodity{Source: 0, Sink: 15, Demand: 1}
	unreachable := Commodity{Source: 15, Sink: 0, Demand: 1}
	loop := Commodity{Source: 5, Sink: 5, Demand: 1}
	badDemand := Commodity{Source: 0, Sink: 15, Demand: -1}
	cases := []struct {
		comms []Commodity
		opts  []Option
		want  error
		index int
	}{
		{[]Commodity{ok, ok, ok, unreachable, ok, ok, unreachable, ok}, nil, graph.ErrNoPath, 3},
		{[]Commodity{ok, ok, ok, unreachable, ok, ok, unreachable, ok}, []Option{WithKShortestPaths(4)}, graph.ErrNoPath, 3},
		{[]Commodity{ok, ok, loop, ok, ok, badDemand, ok, ok}, []Option{WithKShortestPaths(4)}, graph.ErrNoPath, 2},
		{[]Commodity{ok, badDemand, ok, ok, unreachable, ok, ok, ok}, nil, ErrBadDemand, 1},
	}
	for round := 0; round < 20; round++ {
		for _, tc := range cases {
			_, err := buildAt(4, g, lats, tc.comms, tc.opts...)
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("commodity %d", tc.index)) {
				t.Fatalf("error = %v, want %v for commodity %d", err, tc.want, tc.index)
			}
		}
	}
}
