package graph

import (
	"fmt"
	"math"
	"slices"
)

// WeightFunc maps an edge to its non-negative traversal cost.
type WeightFunc func(EdgeID) float64

// Weighted is a graph compiled under fixed edge weights for path searches:
// a CSR out-adjacency whose arcs carry each edge's head and weight inline,
// in the graph's out-edge order. The weight function runs once per edge,
// when the graph is compiled. A Weighted is read-only once built, so
// concurrent KShortestPaths calls may share one.
type Weighted struct {
	g    *Graph
	off  []int32 // node v's arcs are arcs[off[v]:off[v+1]]
	arcs []arc
	w    []float64 // weight by EdgeID
}

type arc struct {
	w    float64
	to   int32
	edge int32
}

// Weighted compiles g under the given edge weights. Edges added to g later
// are not seen by the result.
func (g *Graph) Weighted(weight WeightFunc) *Weighted {
	wg := &Weighted{
		g:    g,
		off:  make([]int32, g.NumNodes()+1),
		arcs: make([]arc, 0, g.NumEdges()),
		w:    make([]float64, g.NumEdges()),
	}
	for e := range wg.w {
		wg.w[e] = weight(EdgeID(e))
	}
	for v, out := range g.out {
		for _, e := range out {
			wg.arcs = append(wg.arcs, arc{w: wg.w[e], to: int32(g.edges[e].To), edge: int32(e)})
		}
		wg.off[v+1] = int32(len(wg.arcs))
	}
	return wg
}

// ShortestPath computes a minimum-weight directed path from source to sink
// under the given edge weights using Dijkstra's algorithm. Weights must be
// non-negative; a negative weight yields ErrNegativeWeight. If sink is
// unreachable it returns ErrNoPath.
func (g *Graph) ShortestPath(source, sink NodeID, weight WeightFunc) (Path, float64, error) {
	if err := g.checkTerminals(source, sink); err != nil {
		return Path{}, 0, err
	}
	return g.Weighted(weight).newSearch().shortestPath(source, sink)
}

func (g *Graph) checkTerminals(source, sink NodeID) error {
	if !g.validNode(source) {
		return fmt.Errorf("%w: source=%d", ErrUnknownNode, source)
	}
	if !g.validNode(sink) {
		return fmt.Errorf("%w: sink=%d", ErrUnknownNode, sink)
	}
	return nil
}

// search is the scratch of Dijkstra searches over one Weighted, reused
// across the spur searches of a k-shortest-paths call. A node's state
// belongs to the current search only where its stamp equals the search's
// epoch, so starting a search costs O(1) instead of O(nodes).
type search struct {
	wg    *Weighted
	node  []nodeState
	heap  []heapEntry
	epoch uint32
}

type nodeState struct {
	dist    float64
	prev    int32  // edge into the node on the best path found
	reached uint32 // == epoch: dist and prev are set
	settled uint32 // == epoch: popped from the heap
	banned  uint32 // == epoch: edges into the node are unusable
}

type heapEntry struct {
	dist float64
	node int32
}

func (wg *Weighted) newSearch() *search {
	return &search{wg: wg, node: make([]nodeState, len(wg.off)-1)}
}

// begin starts a new search: every node unreached, unsettled and unbanned.
func (s *search) begin() {
	s.epoch++
	if s.epoch == 0 { // the stamps wrapped: clear them
		clear(s.node)
		s.epoch = 1
	}
	s.heap = s.heap[:0]
}

// shortestPath runs a search without bans and returns the path it finds.
func (s *search) shortestPath(source, sink NodeID) (Path, float64, error) {
	s.begin()
	dist, err := s.run(source, sink, nil)
	if err != nil {
		return Path{}, 0, err
	}
	if math.IsInf(dist, 1) {
		return Path{}, 0, fmt.Errorf("%w: %d -> %d", ErrNoPath, source, sink)
	}
	return Path{Edges: s.appendPath(nil, source, sink)}, dist, nil
}

// run searches from source, after begin and any node bans, and returns
// sink's distance, +Inf when sink is unreachable. Arcs into banned nodes,
// and the arcs out of source listed in bannedOut, are skipped. A negative
// weight yields ErrNegativeWeight where the search relaxes its arc, so one
// the search never reaches is no error.
func (s *search) run(source, sink NodeID, bannedOut []EdgeID) (float64, error) {
	ep := s.epoch
	nodes, arcs, off := s.node, s.wg.arcs, s.wg.off
	nodes[source].dist, nodes[source].prev, nodes[source].reached = 0, -1, ep
	s.push(heapEntry{0, int32(source)})
	for len(s.heap) > 0 {
		v := s.pop().node
		if nodes[v].settled == ep {
			continue
		}
		nodes[v].settled = ep
		if NodeID(v) == sink {
			break
		}
		dv := nodes[v].dist
		for _, a := range arcs[off[v]:off[v+1]] {
			t := &nodes[a.to]
			if t.banned == ep || (bannedOut != nil && slices.Contains(bannedOut, EdgeID(a.edge))) {
				continue
			}
			if a.w < 0 {
				return 0, fmt.Errorf("%w: edge %d weight %g", ErrNegativeWeight, a.edge, a.w)
			}
			nd := dv + a.w
			d := math.Inf(1)
			if t.reached == ep {
				d = t.dist
			}
			if nd < d {
				t.dist, t.prev, t.reached = nd, a.edge, ep
				s.push(heapEntry{nd, a.to})
			}
		}
		// Source is the first node settled; the banned out-arcs are its own.
		bannedOut = nil
	}
	if nodes[sink].reached != ep {
		return math.Inf(1), nil
	}
	return nodes[sink].dist, nil
}

// appendPath appends the found path's edges from source to sink to dst.
func (s *search) appendPath(dst []EdgeID, source, sink NodeID) []EdgeID {
	start := len(dst)
	for v := sink; v != source; {
		e := s.node[v].prev
		dst = append(dst, EdgeID(e))
		v = s.wg.g.edges[e].From
	}
	slices.Reverse(dst[start:])
	return dst
}

// push and pop are container/heap's Push and Pop on a min-heap of
// distances, with the same sift-up and sift-down comparisons (moving a hole
// instead of swapping), so equal distances pop in the same order they would
// from container/heap.
func (s *search) push(x heapEntry) {
	h := append(s.heap, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(x.dist < h[i].dist) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
	s.heap = h
}

func (s *search) pop() heapEntry {
	h := s.heap
	n := len(h) - 1
	top, x := h[0], h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < x.dist) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	s.heap = h[:n]
	return top
}
