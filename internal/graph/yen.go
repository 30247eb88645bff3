package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// KShortestPaths returns up to k loopless shortest paths from source to sink
// in increasing weight order, using Yen's algorithm over the Dijkstra
// subroutine. It is the strategy-space builder for graphs whose full simple-
// path enumeration explodes: instances can restrict each commodity to its K
// cheapest paths instead. Weights must be non-negative. It returns ErrNoPath
// if no path exists, including when source equals sink; fewer than k paths
// are returned when the graph has fewer loopless paths.
func (g *Graph) KShortestPaths(source, sink NodeID, k int, weight WeightFunc) ([]Path, error) {
	return g.Weighted(weight).KShortestPaths(source, sink, k)
}

// KShortestPaths is Graph.KShortestPaths under the compiled weights. Paths
// of equal weight come out in a fixed order, so the result is a function of
// the graph, the weights and the arguments alone.
func (wg *Weighted) KShortestPaths(source, sink NodeID, k int) ([]Path, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: KShortestPaths needs k >= 1, got %d", k)
	}
	g := wg.g
	if err := g.checkTerminals(source, sink); err != nil {
		return nil, err
	}
	if source == sink {
		return nil, fmt.Errorf("%w: source equals sink (node %d)", ErrNoPath, source)
	}
	s := wg.newSearch()
	best, _, err := s.shortestPath(source, sink)
	if err != nil {
		return nil, err
	}
	accepted := []Path{best}
	key := appendKey(nil, best.Edges)
	seen := map[string]bool{string(key): true}
	var (
		candidates []candidatePath
		prevNodes  []NodeID
		banned     []EdgeID
		cand       []EdgeID
	)

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		prevNodes = prevNodes[:0]
		for _, e := range prev.Edges {
			prevNodes = append(prevNodes, g.edges[e].From)
		}
		// Spur from every node of the previously accepted path except the
		// sink.
		for i := 0; i < len(prev.Edges); i++ {
			spurNode := prevNodes[i]
			rootEdges := prev.Edges[:i]

			// Each banned edge is the i-th edge of an accepted path through
			// the same root, so it leaves the spur node.
			banned = banned[:0]
			for _, p := range accepted {
				if hasPrefix(p.Edges, rootEdges) && len(p.Edges) > i {
					banned = append(banned, p.Edges[i])
				}
			}
			s.begin()
			for _, v := range prevNodes[:i] {
				s.node[v].banned = s.epoch
			}
			dist, err := s.run(spurNode, sink, banned)
			if err != nil || math.IsInf(dist, 1) {
				continue // no spur path from here
			}
			// The spur path is simple and avoids the root's nodes, so root
			// plus spur is a simple path.
			cand = s.appendPath(append(cand[:0], rootEdges...), spurNode, sink)
			key = appendKey(key[:0], cand)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			total := append([]EdgeID(nil), cand...)
			candidates = append(candidates, candidatePath{path: Path{Edges: total}, cost: wg.pathWeight(total)})
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

type candidatePath struct {
	path Path
	cost float64
}

// pathWeight sums the path's edge weights in path order.
func (wg *Weighted) pathWeight(edges []EdgeID) float64 {
	total := 0.0
	for _, e := range edges {
		total += wg.w[e]
	}
	return total
}

// appendKey appends the path's edge IDs as fixed-width bytes: a key that
// identifies the edge sequence.
func appendKey(dst []byte, edges []EdgeID) []byte {
	for _, e := range edges {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e))
	}
	return dst
}

func hasPrefix(edges, prefix []EdgeID) bool {
	if len(edges) < len(prefix) {
		return false
	}
	for i := range prefix {
		if edges[i] != prefix[i] {
			return false
		}
	}
	return true
}
