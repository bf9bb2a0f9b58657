package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Level records everything algorithm Sampler did at one level of the cluster
// hierarchy. Indexes are nodes of the level graph G_j (which are clusters of
// original nodes for j > 0).
type Level struct {
	// J is the level index, 0..K.
	J int
	// G is the level graph G_j. G_0 is the input; later levels are cluster
	// graphs whose edges keep their original IDs and are in general parallel.
	G *graph.Graph
	// Threshold and SamplesPerTrial are the level's resolved parameters.
	Threshold       int
	SamplesPerTrial int
	// CenterProb is p_j = n^{-2^j δ} (meaningless at level K, where no
	// centers are drawn).
	CenterProb float64

	// F contains, per node v of G_j, the edges F_v added to the spanner.
	F [][]graph.EdgeID
	// Light marks nodes that discovered their entire neighborhood.
	Light []bool
	// Heavy marks nodes that discovered at least Threshold distinct
	// neighbors without exhausting their edges.
	Heavy []bool
	// Center marks the nodes drawn as cluster centers (nil at level K).
	Center []bool
	// Assign maps each node of G_j to its cluster index in V_{j+1}, or
	// graph.Dropped for unclustered nodes (nil at level K).
	Assign []int
	// OrigMembers lists, per node v of G_j, the original (level-0) nodes of
	// the cluster C_j(v).
	OrigMembers [][]graph.NodeID

	// Trials and Samples count executed trials and drawn query edges; in the
	// distributed implementation every sample is a query message, so Samples
	// is the centralized proxy for query-message cost.
	Trials  int64
	Samples int64
	// FailSafe counts nodes rescued by the exhaustive-query fail-safe (see
	// Params.FailSafe); under the paper's whp analysis this is 0.
	FailSafe int
	// EdgesAdded is the number of spanner edges contributed by this level.
	EdgesAdded int

	// Per-node working state carried from step 1 into step 2.
	queried []map[graph.NodeID]graph.EdgeID // v -> (neighbor -> query edge)
	nbhd    []*neighborhood
}

// noNode marks "no such node" in neighbor-valued lookups.
const noNode = graph.NodeID(-1)

// Result is the output of algorithm Sampler.
type Result struct {
	// S is the spanner edge set (IDs refer to the input graph).
	S map[graph.EdgeID]bool
	// Levels records the hierarchy, index = level.
	Levels []*Level
	// Params echoes the parameters used.
	Params Params
	// TotalSamples aggregates Level.Samples (centralized message proxy).
	TotalSamples int64
	// FailSafeNodes aggregates Level.FailSafe.
	FailSafeNodes int
}

// StretchBound returns the certified stretch 2·3^K − 1.
func (r *Result) StretchBound() int { return r.Params.StretchBound() }

// Build runs the centralized Sampler of the paper's Section 3 on the simple
// connected graph g and returns the spanner and the full hierarchy trace.
// The run is deterministic given seed.
func Build(g *graph.Graph, p Params, seed uint64) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	n := g.NumNodes()
	res := &Result{S: make(map[graph.EdgeID]bool), Params: p}
	rng := xrand.New(seed).Derive(0xC0DE)

	cur := g
	origMembers := make([][]graph.NodeID, n)
	for v := range origMembers {
		origMembers[v] = []graph.NodeID{graph.NodeID(v)}
	}

	for j := 0; j <= p.K; j++ {
		lvl := &Level{
			J:               j,
			G:               cur,
			Threshold:       p.threshold(j, n),
			SamplesPerTrial: p.samplesPerTrial(j, n),
			CenterProb:      p.centerProb(j, n),
			OrigMembers:     origMembers,
		}
		res.Levels = append(res.Levels, lvl)
		levelRNG := rng.Derive(uint64(j))
		runClusterStep1(lvl, p, levelRNG.Derive(0x51))

		if j < p.K {
			markCentersAndCluster(lvl, p, levelRNG.Derive(0xCE))
		} else {
			finalLevelFailSafe(lvl, p)
		}

		// Collect this level's F into S.
		before := len(res.S)
		for _, fv := range lvl.F {
			for _, e := range fv {
				res.S[e] = true
			}
		}
		lvl.EdgesAdded = len(res.S) - before
		res.TotalSamples += lvl.Samples
		res.FailSafeNodes += lvl.FailSafe

		if j == p.K {
			break
		}
		numClusters := 0
		for _, c := range lvl.Assign {
			if c != graph.Dropped && c+1 > numClusters {
				numClusters = c + 1
			}
		}
		next, err := graph.Contract(cur, lvl.Assign, numClusters)
		if err != nil {
			return nil, fmt.Errorf("core: level %d contraction: %w", j, err)
		}
		nextMembers := make([][]graph.NodeID, numClusters)
		for v, c := range lvl.Assign {
			if c != graph.Dropped {
				nextMembers[c] = append(nextMembers[c], origMembers[v]...)
			}
		}
		cur = next
		origMembers = nextMembers
	}
	return res, nil
}

// neighborhood is the per-node sampling state: the unexplored edge pool X_v
// with O(1) uniform sampling and O(parallel-edges) removal of a neighbor's
// edge bundle.
type neighborhood struct {
	pool  []graph.EdgeID                  // unexplored edges, unordered
	pos   map[graph.EdgeID]int            // edge -> index in pool
	byNbr map[graph.NodeID][]graph.EdgeID // neighbor -> its parallel edges
	nbrOf map[graph.EdgeID]graph.NodeID   // edge -> far endpoint
}

func newNeighborhood(g *graph.Graph, v graph.NodeID) *neighborhood {
	inc := g.Incident(v)
	nb := &neighborhood{
		pool:  make([]graph.EdgeID, 0, len(inc)),
		pos:   make(map[graph.EdgeID]int, len(inc)),
		byNbr: make(map[graph.NodeID][]graph.EdgeID),
		nbrOf: make(map[graph.EdgeID]graph.NodeID, len(inc)),
	}
	for _, h := range inc {
		nb.pos[h.Edge] = len(nb.pool)
		nb.pool = append(nb.pool, h.Edge)
		nb.byNbr[h.Peer] = append(nb.byNbr[h.Peer], h.Edge)
		nb.nbrOf[h.Edge] = h.Peer
	}
	return nb
}

// sample returns a uniform unexplored edge (with replacement); ok is false
// when the pool is empty.
func (nb *neighborhood) sample(rng *xrand.RNG) (graph.EdgeID, bool) {
	if len(nb.pool) == 0 {
		return 0, false
	}
	return nb.pool[rng.Intn(len(nb.pool))], true
}

// removeOne deletes a single edge from the pool (the no-peeling ablation
// path; see Params.DisablePeeling).
func (nb *neighborhood) removeOne(e graph.EdgeID) {
	i, ok := nb.pos[e]
	if !ok {
		return
	}
	last := len(nb.pool) - 1
	moved := nb.pool[last]
	nb.pool[i] = moved
	nb.pos[moved] = i
	nb.pool = nb.pool[:last]
	delete(nb.pos, e)
	u := nb.nbrOf[e]
	rest := nb.byNbr[u][:0]
	for _, other := range nb.byNbr[u] {
		if other != e {
			rest = append(rest, other)
		}
	}
	if len(rest) == 0 {
		delete(nb.byNbr, u)
	} else {
		nb.byNbr[u] = rest
	}
}

// peel removes every edge leading to u from the pool ("peeling off" the
// neighbor in the paper's terminology).
func (nb *neighborhood) peel(u graph.NodeID) {
	for _, e := range nb.byNbr[u] {
		i, ok := nb.pos[e]
		if !ok {
			continue
		}
		last := len(nb.pool) - 1
		moved := nb.pool[last]
		nb.pool[i] = moved
		nb.pos[moved] = i
		nb.pool = nb.pool[:last]
		delete(nb.pos, e)
	}
	delete(nb.byNbr, u)
}

// remainingNeighbors returns the unqueried neighbors, sorted for
// determinism.
func (nb *neighborhood) remainingNeighbors() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(nb.byNbr))
	for u := range nb.byNbr {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runClusterStep1 executes the first step of procedure Cluster_j (the
// iterative edge-sampling trials) for every node of the level graph.
func runClusterStep1(lvl *Level, p Params, rng *xrand.RNG) {
	g := lvl.G
	nj := g.NumNodes()
	lvl.F = make([][]graph.EdgeID, nj)
	lvl.Light = make([]bool, nj)
	lvl.Heavy = make([]bool, nj)
	lvl.queried = make([]map[graph.NodeID]graph.EdgeID, nj)
	lvl.nbhd = make([]*neighborhood, nj)
	for v := 0; v < nj; v++ {
		nodeRNG := rng.Derive(uint64(v))
		nb := newNeighborhood(g, graph.NodeID(v))
		lvl.nbhd[v] = nb
		queried := make(map[graph.NodeID]graph.EdgeID)
		lvl.queried[v] = queried

		for trial := 0; trial < 2*p.H && len(lvl.F[v]) < lvl.Threshold && len(nb.pool) > 0; trial++ {
			lvl.Trials++
			// Draw the whole trial's samples from the start-of-trial pool
			// (the paper draws all of F'_v before the peeling loop), then
			// peel in draw order.
			drawn := make([]graph.EdgeID, 0, lvl.SamplesPerTrial)
			for s := 0; s < lvl.SamplesPerTrial; s++ {
				e, ok := nb.sample(nodeRNG)
				if !ok {
					break
				}
				drawn = append(drawn, e)
				lvl.Samples++
			}
			for _, e := range drawn {
				if len(lvl.F[v]) >= lvl.Threshold {
					// Budget reached: the while-condition of the paper's
					// Pseudocode 2 caps |F_v| at the threshold; without the
					// cap a single trial's sample overshoot (factor
					// n^{1/h}·log²n) would void the Lemma 10 size bound.
					break
				}
				if _, present := nb.pos[e]; !present {
					// The neighbor behind e was peeled earlier in this
					// trial; a with-replacement duplicate or parallel edge.
					continue
				}
				u := nb.nbrOf[e]
				if _, dup := queried[u]; dup {
					// Reachable only with peeling disabled (E10 ablation):
					// the duplicate neighbor wastes the sample.
					nb.removeOne(e)
					continue
				}
				queried[u] = e
				lvl.F[v] = append(lvl.F[v], e)
				if p.DisablePeeling {
					nb.removeOne(e)
				} else {
					nb.peel(u)
				}
			}
		}
		if len(nb.pool) == 0 {
			lvl.Light[v] = true
		} else if len(queried) >= lvl.Threshold {
			lvl.Heavy[v] = true
		}
	}
}

// exhaust makes node v light by querying one edge per remaining neighbor
// (the fail-safe path; in the distributed implementation this costs one
// query message per remaining unexplored edge).
func (lvl *Level) exhaust(v int) {
	nb := lvl.nbhd[v]
	for _, u := range nb.remainingNeighbors() {
		e := nb.byNbr[u][0]
		lvl.queried[v][u] = e
		lvl.F[v] = append(lvl.F[v], e)
		lvl.Samples += int64(len(nb.byNbr[u]))
		nb.peel(u)
	}
	lvl.Light[v] = true
	lvl.Heavy[v] = false
	lvl.FailSafe++
}

// markCentersAndCluster executes the second step of Cluster_j: draw centers,
// apply the fail-safe to would-be-unclustered non-light nodes, and merge
// every non-center with a queried center into that center's cluster.
func markCentersAndCluster(lvl *Level, p Params, rng *xrand.RNG) {
	nj := lvl.G.NumNodes()
	lvl.Center = make([]bool, nj)
	for v := 0; v < nj; v++ {
		lvl.Center[v] = rng.Derive(uint64(v)).Bernoulli(lvl.CenterProb)
	}
	if p.FailSafe {
		for v := 0; v < nj; v++ {
			if lvl.Center[v] || lvl.Light[v] {
				continue
			}
			if lvl.queriedCenter(v) == noNode {
				lvl.exhaust(v)
			}
		}
	}
	lvl.Assign = make([]int, nj)
	next := 0
	for v := 0; v < nj; v++ {
		if lvl.Center[v] {
			lvl.Assign[v] = next
			next++
		} else {
			lvl.Assign[v] = graph.Dropped
		}
	}
	for v := 0; v < nj; v++ {
		if lvl.Center[v] {
			continue
		}
		if u := lvl.queriedCenter(v); u != noNode {
			lvl.Assign[v] = lvl.Assign[u]
		}
	}
}

// queriedCenter returns the smallest queried center of v, or noNode if none
// (the paper allows an arbitrary choice; smallest makes runs reproducible).
func (lvl *Level) queriedCenter(v int) graph.NodeID {
	best := noNode
	//freelunch:orderok strict minimum over distinct keys: order-free
	for u := range lvl.queried[v] {
		if lvl.Center[u] && (best == noNode || u < best) {
			best = u
		}
	}
	return best
}

// finalLevelFailSafe enforces the paper's Lemma 6 corollary ("every node in
// G_k is light") deterministically when the fail-safe is on: any level-K
// node still holding unexplored edges queries them all.
func finalLevelFailSafe(lvl *Level, p Params) {
	if !p.FailSafe {
		return
	}
	for v := 0; v < lvl.G.NumNodes(); v++ {
		if !lvl.Light[v] {
			lvl.exhaust(v)
		}
	}
}
