package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/graph"
)

// ValidateHierarchy checks the structural invariants the paper's analysis
// relies on, against the original input graph g:
//
//   - every spanner edge is an edge of g (S ⊆ E);
//   - at every level, clusters are pairwise disjoint sets of original nodes
//     and each cluster contains exactly one center;
//   - the subgraph of H = (V, S) induced by each cluster C_j(v) is connected
//     with diameter ≤ 3^j − 1 (Lemma 8);
//   - with the fail-safe enabled, every unclustered node is light (the
//     premise of Theorem 9's stretch argument).
//
// It returns nil if all invariants hold.
func (r *Result) ValidateHierarchy(g *graph.Graph) error {
	for _, id := range slices.Sorted(maps.Keys(r.S)) {
		if !g.HasEdgeID(id) {
			return fmt.Errorf("core: spanner edge %d not in input graph", id)
		}
	}
	h, err := g.SubgraphByEdges(r.S)
	if err != nil {
		return err
	}
	for _, lvl := range r.Levels {
		if err := validateLevel(lvl, g, h, r.Params); err != nil {
			return fmt.Errorf("level %d: %w", lvl.J, err)
		}
	}
	return nil
}

func validateLevel(lvl *Level, g, h *graph.Graph, p Params) error {
	// Disjointness of the level's clusters over original nodes.
	seen := make(map[graph.NodeID]int, g.NumNodes())
	for v, members := range lvl.OrigMembers {
		if len(members) == 0 {
			return fmt.Errorf("node %d has no members", v)
		}
		for _, m := range members {
			if prev, dup := seen[m]; dup {
				return fmt.Errorf("original node %d in clusters %d and %d", m, prev, v)
			}
			seen[m] = v
		}
	}
	// Lemma 8: induced diameter bound.
	bound := pow3(lvl.J) - 1
	for v, members := range lvl.OrigMembers {
		if d := inducedDiameter(h, members); d < 0 || d > bound {
			return fmt.Errorf("cluster %d induced diameter %d exceeds 3^%d-1 = %d", v, d, lvl.J, bound)
		}
	}
	// One center per next-level cluster, and unclustered ⇒ light when the
	// fail-safe is on.
	if lvl.Assign != nil {
		centersPerCluster := make([]int, len(lvl.Assign))
		for v, c := range lvl.Assign {
			if c == graph.Dropped {
				if p.FailSafe && !lvl.Light[v] {
					return fmt.Errorf("unclustered node %d is not light", v)
				}
				continue
			}
			if c < 0 || c >= len(centersPerCluster) {
				return fmt.Errorf("node %d assigned to out-of-range cluster %d", v, c)
			}
			if lvl.Center[v] {
				centersPerCluster[c]++
			}
		}
		for c, count := range centersPerCluster {
			if count > 1 {
				return fmt.Errorf("cluster %d has %d centers", c, count)
			}
		}
		for v, c := range lvl.Assign {
			if c != graph.Dropped && centersPerCluster[c] == 0 {
				return fmt.Errorf("node %d assigned to centerless cluster %d", v, c)
			}
		}
	} else if p.FailSafe {
		// Final level: everyone is unclustered and must be light.
		for v, light := range lvl.Light {
			if !light {
				return fmt.Errorf("final-level node %d is not light", v)
			}
		}
	}
	return nil
}

// inducedDiameter returns the diameter of the subgraph of h induced by the
// given members, or -1 if that subgraph is disconnected.
func inducedDiameter(h *graph.Graph, members []graph.NodeID) int {
	if len(members) == 1 {
		return 0
	}
	inSet := make(map[graph.NodeID]bool, len(members))
	for _, m := range members {
		inSet[m] = true
	}
	diam := 0
	for _, src := range members {
		dist := map[graph.NodeID]int{src: 0}
		queue := []graph.NodeID{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, half := range h.Incident(v) {
				if !inSet[half.Peer] {
					continue
				}
				if _, ok := dist[half.Peer]; !ok {
					dist[half.Peer] = dist[v] + 1
					diam = max(diam, dist[v]+1)
					queue = append(queue, half.Peer)
				}
			}
		}
		if len(dist) != len(members) {
			return -1
		}
	}
	return diam
}

// Trace renders a human-readable level-by-level account of the run — the
// textual counterpart of the paper's Figure 1. Intended for small graphs.
func (r *Result) Trace() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sampler k=%d h=%d  (stretch bound %d, size exponent %.3f)\n",
		r.Params.K, r.Params.H, r.StretchBound(), r.Params.PredictedSizeExponent())
	for _, lvl := range r.Levels {
		fmt.Fprintf(&b, "level %d: |V_%d|=%d |E_%d|=%d  threshold=%d samples/trial=%d p_j=%.4f\n",
			lvl.J, lvl.J, lvl.G.NumNodes(), lvl.J, lvl.G.NumEdges(),
			lvl.Threshold, lvl.SamplesPerTrial, lvl.CenterProb)
		light, heavy := 0, 0
		for v := range lvl.Light {
			if lvl.Light[v] {
				light++
			}
			if lvl.Heavy[v] {
				heavy++
			}
		}
		fmt.Fprintf(&b, "  light=%d heavy=%d trials=%d samples=%d failsafe=%d spanner+=%d\n",
			light, heavy, lvl.Trials, lvl.Samples, lvl.FailSafe, lvl.EdgesAdded)
		if lvl.Assign != nil {
			clusters := make(map[int][]int)
			dropped := 0
			for v, c := range lvl.Assign {
				if c == graph.Dropped {
					dropped++
				} else {
					clusters[c] = append(clusters[c], v)
				}
			}
			fmt.Fprintf(&b, "  centers->clusters=%d unclustered=%d\n", len(clusters), dropped)
			if lvl.G.NumNodes() <= 32 {
				for c := 0; c < len(clusters); c++ {
					fmt.Fprintf(&b, "    C%d: %v\n", c, clusters[c])
				}
			}
		}
	}
	fmt.Fprintf(&b, "spanner size |S|=%d\n", len(r.S))
	return b.String()
}
