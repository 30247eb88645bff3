package graph

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// The differential oracle for the shortest-path code: the original
// map-and-closure Dijkstra and Yen implementations, kept verbatim apart from
// their names (oracleShortestPath, oracleKShortestPaths). The parity tests
// in parity_test.go require the compiled search to return exactly these
// paths, in this order, with the same error class. One difference is by
// design: oracleKShortestPaths(s, s, …) returns one empty path, where
// KShortestPaths returns ErrNoPath.

func oracleShortestPath(g *Graph, source, sink NodeID, weight WeightFunc) (Path, float64, error) {
	if !g.validNode(source) {
		return Path{}, 0, fmt.Errorf("%w: source=%d", ErrUnknownNode, source)
	}
	if !g.validNode(sink) {
		return Path{}, 0, fmt.Errorf("%w: sink=%d", ErrUnknownNode, sink)
	}
	dist := make([]float64, g.NumNodes())
	prevEdge := make([]EdgeID, g.NumNodes())
	settled := make([]bool, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[source] = 0

	pq := &nodeHeap{}
	heap.Init(pq)
	heap.Push(pq, nodeDist{node: source, dist: 0})
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeDist)
		v := item.node
		if settled[v] {
			continue
		}
		settled[v] = true
		if v == sink {
			break
		}
		for _, e := range g.out[v] {
			w := weight(e)
			if w < 0 {
				return Path{}, 0, fmt.Errorf("%w: edge %d weight %g", ErrNegativeWeight, e, w)
			}
			to := g.edges[e].To
			if nd := dist[v] + w; nd < dist[to] {
				dist[to] = nd
				prevEdge[to] = e
				heap.Push(pq, nodeDist{node: to, dist: nd})
			}
		}
	}
	if math.IsInf(dist[sink], 1) {
		return Path{}, 0, fmt.Errorf("%w: %d -> %d", ErrNoPath, source, sink)
	}
	// Reconstruct edge sequence sink->source, then reverse.
	var rev []EdgeID
	for v := sink; v != source; {
		e := prevEdge[v]
		rev = append(rev, e)
		v = g.edges[e].From
	}
	edges := make([]EdgeID, len(rev))
	for i, e := range rev {
		edges[len(rev)-1-i] = e
	}
	return Path{Edges: edges}, dist[sink], nil
}

type nodeDist struct {
	node NodeID
	dist float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

func oracleKShortestPaths(g *Graph, source, sink NodeID, k int, weight WeightFunc) ([]Path, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: KShortestPaths needs k >= 1, got %d", k)
	}
	best, _, err := oracleShortestPath(g, source, sink, weight)
	if err != nil {
		return nil, err
	}
	accepted := []Path{best}
	seen := map[string]bool{best.String(): true}
	var candidates []candidatePath

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		prevNodes := prev.Nodes(g)
		// Spur from every node of the previously accepted path except the
		// sink.
		for i := 0; i < len(prev.Edges); i++ {
			spurNode := prevNodes[i]
			rootEdges := prev.Edges[:i]

			bannedEdges := map[EdgeID]bool{}
			for _, p := range accepted {
				if hasPrefix(p.Edges, rootEdges) && len(p.Edges) > i {
					bannedEdges[p.Edges[i]] = true
				}
			}
			bannedNodes := map[NodeID]bool{}
			for _, v := range prevNodes[:i] {
				bannedNodes[v] = true
			}

			w := func(e EdgeID) float64 {
				if bannedEdges[e] {
					return math.Inf(1)
				}
				edge, _ := g.Edge(e)
				if bannedNodes[edge.To] || bannedNodes[edge.From] {
					return math.Inf(1)
				}
				return weight(e)
			}
			spur, _, err := oracleShortestPath(g, spurNode, sink, w)
			if err != nil {
				continue // no spur path from here
			}
			total := make([]EdgeID, 0, len(rootEdges)+len(spur.Edges))
			total = append(total, rootEdges...)
			total = append(total, spur.Edges...)
			cand := Path{Edges: total}
			if !cand.Valid(g) {
				continue // root+spur revisits a node
			}
			key := cand.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			candidates = append(candidates, candidatePath{path: cand, cost: pathWeight(cand, weight)})
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool { return candidates[a].cost < candidates[b].cost })
		accepted = append(accepted, candidates[0].path)
		candidates = candidates[1:]
	}
	return accepted, nil
}

func pathWeight(p Path, weight WeightFunc) float64 {
	total := 0.0
	for _, e := range p.Edges {
		total += weight(e)
	}
	return total
}
