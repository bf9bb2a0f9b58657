// Package gen builds the graph families used as experiment workloads.
//
// The front door is the declarative Spec API: describe a family by name and
// parameters ({Family, N, Degree/P/M, Rows, Cols, Seed, Path}) and Build it.
// The registry behind it (Families) is shared by the CLI flags, the HTTP
// server's graph spec, and Go callers, so the three surfaces cannot drift.
//
// Every generator is deterministic given its seed (or *xrand.RNG argument),
// so experiments and tests are reproducible. Generators emit edges straight
// into the graph's CSR edge table — memory stays O(edges), with no
// intermediate adjacency structures — which is what makes million-node
// workloads practical. Families that can produce disconnected graphs are
// patched connected by Connectify with the minimum number of extra edges;
// the paper assumes a connected communication graph throughout.
package gen

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	g := graph.NewWithCapacity(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return g
}

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *graph.Graph {
	g := graph.NewWithCapacity(n, n)
	if n < 2 {
		return g
	}
	for v := 0; v < n; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%n))
	}
	return g
}

// Path returns the path on n nodes.
func Path(n int) *graph.Graph {
	g := graph.NewWithCapacity(n, n-1)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	return g
}

// Star returns the star with one hub (node 0) and n-1 leaves.
func Star(n int) *graph.Graph {
	g := graph.NewWithCapacity(n, n-1)
	for v := 1; v < n; v++ {
		g.AddEdge(0, graph.NodeID(v))
	}
	return g
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *graph.Graph {
	g := graph.NewWithCapacity(rows*cols, 2*rows*cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Torus returns the rows x cols torus (grid with wraparound); rows and cols
// must be at least 3 to avoid parallel edges.
func Torus(rows, cols int) *graph.Graph {
	if rows < 3 || cols < 3 {
		panic("gen: torus needs rows, cols >= 3")
	}
	g := graph.NewWithCapacity(rows*cols, 2*rows*cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(id(r, c), id(r, (c+1)%cols))
			g.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int) *graph.Graph {
	n := 1 << d
	g := graph.NewWithCapacity(n, n*d/2)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << b)
			if u > v {
				g.AddEdge(graph.NodeID(v), graph.NodeID(u))
			}
		}
	}
	return g
}

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, rng *xrand.RNG) *graph.Graph {
	if p >= 1 {
		return Complete(n)
	}
	g := graph.New(n)
	if p <= 0 {
		return g
	}
	// Geometric skipping (Batagelj–Brandes) for o(n^2) expected work on
	// sparse inputs.
	lnq := math.Log(1 - p)
	v, w := 1, -1
	for v < n {
		r := rng.Float64()
		w += 1 + int(math.Log(1-r)/lnq)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			g.AddEdge(graph.NodeID(v), graph.NodeID(w))
		}
	}
	return g
}

// ConnectedGNP returns G(n, p) patched connected by Connectify, which adds
// at most (#components − 1) edges. It is the "gnp" Spec family.
func ConnectedGNP(n int, p float64, rng *xrand.RNG) *graph.Graph {
	return Connectify(GNP(n, p, rng), rng)
}

// GNM returns a uniform graph with n nodes and exactly m distinct edges
// (no parallel edges). It panics if m exceeds n(n-1)/2.
func GNM(n, m int, rng *xrand.RNG) *graph.Graph {
	max := n * (n - 1) / 2
	if m > max {
		panic(fmt.Sprintf("gen: GNM(%d,%d) exceeds %d possible edges", n, m, max))
	}
	g := graph.NewWithCapacity(n, m)
	type pair struct{ a, b graph.NodeID }
	seen := make(map[pair]bool, m)
	for g.NumEdges() < m {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[pair{u, v}] {
			continue
		}
		seen[pair{u, v}] = true
		g.AddEdge(u, v)
	}
	return g
}

// randomTree returns a uniformly random recursive tree on n nodes: node v>0
// attaches to a uniform node in [0, v).
func randomTree(n int, rng *xrand.RNG) *graph.Graph {
	g := graph.NewWithCapacity(n, n-1)
	for v := 1; v < n; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID(rng.Intn(v)))
	}
	return g
}

// randomRegular returns a d-regular graph on n nodes via the pairing model,
// retrying until the pairing is simple. n*d must be even and 1 <= d < n. The
// chance that one pairing is simple falls like exp(-(d²-1)/4), so at degree
// 6 and above the retries almost always run out; that is an error, not a
// panic, because the family is reachable from external input.
func randomRegular(n, d int, rng *xrand.RNG) (*graph.Graph, error) {
	if d < 1 || d >= n || n*d%2 != 0 {
		return nil, fmt.Errorf("gen: regular needs 1 <= deg < n with n*deg even, got n=%d deg=%d", n, d)
	}
	const tries = 1002
	for i := 0; i < tries; i++ {
		if g, ok := tryPairing(n, d, rng); ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: regular(n=%d, deg=%d) found no simple pairing in %d attempts; "+
		"the expander family builds random simple d-regular graphs", n, d, tries)
}

func tryPairing(n, d int, rng *xrand.RNG) (*graph.Graph, bool) {
	stubs := make([]graph.NodeID, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, graph.NodeID(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	type pair struct{ a, b graph.NodeID }
	seen := make(map[pair]bool, n*d/2)
	g := graph.NewWithCapacity(n, n*d/2)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return nil, false
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if seen[pair{a, b}] {
			return nil, false
		}
		seen[pair{a, b}] = true
		g.AddEdge(u, v)
	}
	return g, true
}

// Barbell returns two cliques of size cliqueN joined by a path of pathLen
// intermediate nodes. This is the canonical low-conductance graph on which
// gossip-based schemes suffer.
func Barbell(cliqueN, pathLen int) *graph.Graph {
	n := 2*cliqueN + pathLen
	g := graph.NewWithCapacity(n, cliqueN*(cliqueN-1)+pathLen+1)
	addClique := func(base int) {
		for u := 0; u < cliqueN; u++ {
			for v := u + 1; v < cliqueN; v++ {
				g.AddEdge(graph.NodeID(base+u), graph.NodeID(base+v))
			}
		}
	}
	addClique(0)
	addClique(cliqueN + pathLen)
	prev := graph.NodeID(cliqueN - 1) // a node of the left clique
	for i := 0; i < pathLen; i++ {
		next := graph.NodeID(cliqueN + i)
		g.AddEdge(prev, next)
		prev = next
	}
	g.AddEdge(prev, graph.NodeID(cliqueN+pathLen)) // into the right clique
	return g
}

// PreferentialAttachment returns a Barabási–Albert graph: starting from a
// Star on m+1 nodes, each new node attaches to m distinct existing nodes
// chosen proportionally to degree.
func PreferentialAttachment(n, m int, rng *xrand.RNG) *graph.Graph {
	if m < 1 || n < m+1 {
		panic(fmt.Sprintf("gen: invalid PreferentialAttachment(%d,%d)", n, m))
	}
	g := graph.NewWithCapacity(n, m+(n-m-1)*m)
	// Repeated-endpoints list: picking a uniform element is degree-biased.
	ends := make([]graph.NodeID, 0, 2*(m+(n-m-1)*m))
	for v := 1; v <= m; v++ {
		g.AddEdge(0, graph.NodeID(v))
		ends = append(ends, 0, graph.NodeID(v))
	}
	picked := make([]graph.NodeID, 0, m)
	for v := m + 1; v < n; v++ {
		// Track picks in first-draw order, not map order: the emitted edge
		// order (and hence the graph fingerprint) must be a deterministic
		// function of the RNG stream for Spec keys to be cache identities.
		targets := make(map[graph.NodeID]bool, m)
		picked = picked[:0]
		for len(picked) < m {
			u := ends[rng.Intn(len(ends))]
			if !targets[u] {
				targets[u] = true
				picked = append(picked, u)
			}
		}
		for _, u := range picked {
			g.AddEdge(graph.NodeID(v), u)
			ends = append(ends, graph.NodeID(v), u)
		}
	}
	return g
}

// expander returns a simple d-regular expander candidate on n >= 3 nodes: a
// uniformly random Hamiltonian base cycle (which alone guarantees
// connectivity) plus a stub-matching pass that pairs each node's remaining
// d-2 half-edges at random, deferring any pair that would create a self-loop
// or a parallel edge to the next shuffle. Random regular graphs of this kind
// are expanders with high probability, and the result is always simple, so
// every downstream consumer — including the distributed sampler, which
// refuses multigraphs — accepts it. If the repair loop wedges with only
// unusable stub pairs left (likelier as d approaches n), the whole build
// restarts from a fresh cycle; for the sparse regimes expanders are for
// (d << n) a restart is rare and the expected cost stays O(n*d).
func expander(n, d int, rng *xrand.RNG) *graph.Graph {
	if n < 3 || d < 2 {
		panic(fmt.Sprintf("gen: invalid expander(%d,%d): need n >= 3, d >= 2", n, d))
	}
	if d%2 == 1 && n%2 == 1 {
		panic(fmt.Sprintf("gen: expander(%d,%d): odd degree needs even n", n, d))
	}
	if d >= n {
		panic(fmt.Sprintf("gen: expander(%d,%d): simple d-regular needs d < n", n, d))
	}
	edgeKey := func(u, v graph.NodeID) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	perm := make([]graph.NodeID, n)
	stubs := make([]graph.NodeID, 0, n*(d-2))
	pending := make([]graph.NodeID, 0, n*(d-2))
restart:
	for {
		g := graph.NewWithCapacity(n, n*d/2)
		seen := make(map[uint64]bool, n*d/2)
		for i := range perm {
			perm[i] = graph.NodeID(i)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i < n; i++ {
			u, v := perm[i], perm[(i+1)%n]
			g.AddEdge(u, v)
			seen[edgeKey(u, v)] = true
		}
		stubs = stubs[:0]
		for v := 0; v < n; v++ {
			for k := 2; k < d; k++ {
				stubs = append(stubs, graph.NodeID(v))
			}
		}
		for len(stubs) > 0 {
			rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
			pending = pending[:0]
			progress := false
			for i := 0; i+1 < len(stubs); i += 2 {
				u, v := stubs[i], stubs[i+1]
				if u == v || seen[edgeKey(u, v)] {
					pending = append(pending, u, v)
					continue
				}
				g.AddEdge(u, v)
				seen[edgeKey(u, v)] = true
				progress = true
			}
			stubs, pending = pending, stubs
			if !progress && len(stubs) > 0 && !stubsSuitable(stubs, seen, edgeKey) {
				continue restart
			}
		}
		return g
	}
}

// stubsSuitable reports whether some pair of remaining stubs can still form a
// new simple edge; when it cannot, the stub-matching pass is wedged and only
// a full restart can finish the graph.
func stubsSuitable(stubs []graph.NodeID, seen map[uint64]bool, edgeKey func(u, v graph.NodeID) uint64) bool {
	for i := 0; i < len(stubs); i++ {
		for j := i + 1; j < len(stubs); j++ {
			if stubs[i] != stubs[j] && !seen[edgeKey(stubs[i], stubs[j])] {
				return true
			}
		}
	}
	return false
}

// Community returns a planted-partition graph: blocks of size blockSize with
// intra-block edge probability pIn and inter-block probability pOut. It is a
// building block (no Spec family of its own): callers compose it with their
// own block heuristics.
func Community(blocks, blockSize int, pIn, pOut float64, rng *xrand.RNG) *graph.Graph {
	n := blocks * blockSize
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if u/blockSize == v/blockSize {
				p = pIn
			}
			if rng.Bernoulli(p) {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	return g
}

// Connectify adds the minimum number of random edges to make g connected and
// returns g (mutated in place).
func Connectify(g *graph.Graph, rng *xrand.RNG) *graph.Graph {
	label, k := g.Components()
	if k <= 1 {
		return g
	}
	// Pick one random representative per component, then chain them.
	reps := make([]graph.NodeID, k)
	counts := make([]int, k)
	for v, c := range label {
		counts[c]++
		// Reservoir sampling: replace the representative with prob 1/count.
		if rng.Intn(counts[c]) == 0 {
			reps[c] = graph.NodeID(v)
		}
	}
	for i := 1; i < k; i++ {
		g.AddEdge(reps[i-1], reps[i])
	}
	return g
}

// Multi returns a multigraph: base graph g with every edge duplicated so that
// edge (u,v) appears with multiplicity mult(u,v). Used by the peeling
// ablation, which needs controlled edge multiplicities.
func Multi(g *graph.Graph, mult func(e graph.Edge) int) *graph.Graph {
	out := graph.New(g.NumNodes())
	for _, e := range g.Edges() {
		m := mult(e)
		if m < 1 {
			m = 1
		}
		for i := 0; i < m; i++ {
			out.AddEdge(e.U, e.V)
		}
	}
	return out
}
