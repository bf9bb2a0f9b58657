package simulate

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/local"
)

// Replay reconstructs node v's exact t-ball from the collection and
// re-executes the algorithm on it, returning v's output — the value it
// would have produced in a direct t-round run on the original graph. It is
// the one-node case of ReplayAllN.
func (c *Collection) Replay(spec algorithms.Spec, v graph.NodeID) (any, error) {
	out, err := c.replay(context.Background(), spec, []graph.NodeID{v}, 0)
	if err != nil {
		return nil, errors.Unwrap(err) // drop the "node v: " prefix
	}
	return out[0], nil
}

// ReplayAllN replays every node and returns the full output vector.
//
// Nodes share replays. A node's replay graph is a deterministic function of
// its collected view c.Ports[v] and its t-ball within that view, and a
// LOCAL run on a fixed graph, seed and network size is deterministic. So
// nodes with equal views and equal balls would run byte-identical replays:
// ReplayAllN runs that replay once and reads each member's output from its
// own protocol instance in it. Views and balls are matched by digest, but a
// match counts only after an exact comparison, so no output is ever shared
// on a hash match alone. On a complete graph every ball is the whole graph
// and one replay serves every node; on a large-diameter graph no two balls
// coincide and the sweep runs one replay per node, as Replay would.
//
// The distinct replays fan out over a worker pool. The concurrency knob
// follows the facade convention: 0 sequential, w > 0 that many workers,
// w < 0 GOMAXPROCS. Output slots are indexed by node, so the result is
// byte-identical at every concurrency level. When replays fail, the error
// names the lowest failing node. Cancelling ctx aborts the digest and
// grouping steps between nodes and a replay within one node step.
func (c *Collection) ReplayAllN(ctx context.Context, spec algorithms.Spec, concurrency int) ([]any, error) {
	nodes := make([]graph.NodeID, len(c.Ports))
	for v := range nodes {
		nodes[v] = graph.NodeID(v)
	}
	return c.replay(ctx, spec, nodes, concurrency)
}

// viewGroup is the set of nodes, as positions into the replayed node list,
// whose collected views are equal.
type viewGroup struct {
	members []int32    // ascending; members[0]'s view stands for the group
	x       *viewIndex // set when two or more members share the view
	err     error      // indexing the view failed; every member fails with it
}

// replayJob is one distinct replay: a view, a ball in it, and the nodes
// whose outputs the run yields.
type replayJob struct {
	x       *viewIndex // nil: the view is members[0]'s alone, indexed in the job
	ball    []int32
	members []int32 // ascending
	err     error   // set for a group that failed indexing
}

// replay replays nodes and returns their outputs, out[i] being nodes[i]'s.
// It digests every view, groups nodes by view, indexes each view that
// several nodes share and takes each member's ball in it, groups members by
// ball, and runs each distinct replay once. Jobs are made in node order, so
// the lowest-indexed failing job holds the lowest failing node.
func (c *Collection) replay(ctx context.Context, spec algorithms.Spec, nodes []graph.NodeID, workers int) ([]any, error) {
	origins := make([][]graph.NodeID, len(nodes))
	digests := make([]uint64, len(nodes))
	err := core.ParallelFor(ctx, len(nodes), workers, func(i int) error {
		view := c.Ports[nodes[i]]
		origins[i] = viewOrigins(view)
		digests[i] = viewDigest(view, origins[i])
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Group nodes by view, in node order. A digest match joins a group
	// only after an exact comparison.
	var groups []*viewGroup
	groupOf := make([]int32, len(nodes))
	byView := make(map[uint64][]int32)
	for i, v := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gi := int32(-1)
		for _, g := range byView[digests[i]] {
			r := groups[g].members[0]
			if sameView(c.Ports[nodes[r]], c.Ports[v], origins[r], origins[i]) {
				gi = g
				break
			}
		}
		if gi < 0 {
			gi = int32(len(groups))
			groups = append(groups, &viewGroup{})
			byView[digests[i]] = append(byView[digests[i]], gi)
		} else {
			origins[i] = nil // the group reads its first member's
		}
		groups[gi].members = append(groups[gi].members, int32(i))
		groupOf[i] = gi
	}

	// Index each view that several nodes share, then take each member's
	// ball in it. A view held by one node is indexed inside its job.
	var shared []*viewGroup
	for _, g := range groups {
		if len(g.members) > 1 {
			shared = append(shared, g)
		}
	}
	err = core.ParallelFor(ctx, len(shared), workers, func(k int) error {
		g := shared[k]
		r := g.members[0]
		g.x, g.err = newViewIndex(c.Ports[nodes[r]], origins[r])
		return nil
	})
	if err != nil {
		return nil, err
	}
	balls := make([][]int32, len(nodes))
	err = core.ParallelFor(ctx, len(nodes), workers, func(i int) error {
		if x := groups[groupOf[i]].x; x != nil {
			balls[i] = x.ball(nodes[i], spec.T)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Group each view's members by ball, in node order: one job per
	// distinct replay.
	var jobs []*replayJob
	byBall := make(map[uint64][]int32)
	for i := range nodes {
		g, m := groups[groupOf[i]], int32(i)
		switch {
		case g.err != nil:
			if g.members[0] == m {
				jobs = append(jobs, &replayJob{members: []int32{m}, err: g.err})
			}
			continue
		case g.x == nil || balls[i] == nil:
			jobs = append(jobs, &replayJob{x: g.x, members: []int32{m}})
			continue
		}
		h := ballDigest(groupOf[i], balls[i])
		j := int32(-1)
		for _, k := range byBall[h] {
			if jobs[k].x == g.x && slices.Equal(jobs[k].ball, balls[i]) {
				j = k
				break
			}
		}
		if j < 0 {
			byBall[h] = append(byBall[h], int32(len(jobs)))
			jobs = append(jobs, &replayJob{x: g.x, ball: balls[i], members: []int32{m}})
		} else {
			jobs[j].members = append(jobs[j].members, m)
		}
	}

	// The distinct replays are the unit of parallel work, so one view with
	// many distinct balls still spreads over every worker.
	out := make([]any, len(nodes))
	err = core.ParallelFor(ctx, len(jobs), workers, func(j int) error {
		jb := jobs[j]
		first := jb.members[0]
		err := jb.err
		if err == nil {
			err = c.runJob(ctx, spec, jb, nodes, origins[first], out)
		}
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("node %d: %w", nodes[first], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runJob runs one distinct replay and writes every member's output into its
// slot of out. origins is the first member's sorted view origins, used when
// the job indexes its own view.
func (c *Collection) runJob(ctx context.Context, spec algorithms.Spec, jb *replayJob, nodes []graph.NodeID, origins []graph.NodeID, out []any) error {
	v := nodes[jb.members[0]]
	x, ball := jb.x, jb.ball
	if x == nil {
		var err error
		if x, err = newViewIndex(c.Ports[v], origins); err != nil {
			return err
		}
		ball = x.ball(v, spec.T)
	}
	rg, idmap, err := x.replayGraph(v, ball, c.N)
	if err != nil {
		return err
	}
	// Re-execute with original identities, original network size, and the
	// original seed, so every ball node behaves exactly as in the real run.
	// idmap[:nb] lists the ball's identities in ascending order.
	nb := max(len(ball), 1)
	protos := make([]local.Protocol, nb)
	run, err := local.RunCtx(ctx, rg, func(id graph.NodeID) local.Protocol {
		p := spec.New(id)
		if i, ok := slices.BinarySearch(idmap[:nb], id); ok {
			protos[i] = p
		}
		return p
	}, local.Config{
		Seed:      c.Seed,
		MaxRounds: spec.T + 1,
		IDMap:     idmap,
		NOverride: c.N,
	})
	if err != nil {
		return err
	}
	if !run.Halted {
		return fmt.Errorf("simulate: replay of %s did not halt in %d rounds", spec.Name, spec.T)
	}
	for _, m := range jb.members {
		i, _ := slices.BinarySearch(idmap[:nb], nodes[m])
		out[m] = spec.Output(protos[i])
	}
	return nil
}

// viewIndex is the owner/adjacency index of one collected view, in flat
// arrays. Origins are numbered by rank in ascending ID order, and their
// port lists lie end to end in that order: origin rank i holds port
// positions start[i] to start[i+1]-1, in collected order.
type viewIndex struct {
	origins []graph.NodeID
	ports   [][]graph.EdgeID // ports[i] is origin rank i's port list
	start   []int32
	// peer[p] is the rank of the other origin listing port p's edge ID, or
	// -1 when no other port lists it. An edge ID shared by two port lists
	// connects their origins (the unique-edge-ID assumption at work).
	peer []int32
}

// newViewIndex indexes view, whose origins are given in ascending order. It
// fails when a third port claims an edge ID.
func newViewIndex(view map[graph.NodeID][]graph.EdgeID, origins []graph.NodeID) (*viewIndex, error) {
	x := &viewIndex{origins: origins, ports: make([][]graph.EdgeID, len(origins)), start: make([]int32, len(origins)+1)}
	for i, u := range origins {
		x.ports[i] = view[u]
		x.start[i+1] = x.start[i] + int32(len(x.ports[i]))
	}
	// Sort the port positions by edge ID: two adjacent positions with one
	// edge ID are that edge's two ends. A position sorts as one word with
	// its edge ID packed above it; edge IDs outside [0, 2^32), which no
	// generator assigns, take a comparison sort instead.
	keys := make([]uint64, 0, x.start[len(origins)])
	owner := make([]int32, 0, cap(keys)) // origin rank of each position
	wide := false
	for i, ports := range x.ports {
		for _, e := range ports {
			wide = wide || uint64(e) > math.MaxUint32
			keys = append(keys, uint64(e)<<32|uint64(len(keys)))
			owner = append(owner, int32(i))
		}
	}
	edge := func(k uint64) graph.EdgeID { return graph.EdgeID(k >> 32) }
	if wide {
		flat := slices.Concat(x.ports...)
		for p := range keys {
			keys[p] = uint64(p)
		}
		edge = func(k uint64) graph.EdgeID { return flat[uint32(k)] }
		slices.SortFunc(keys, func(a, b uint64) int { return cmp.Compare(edge(a), edge(b)) })
	} else {
		slices.Sort(keys)
	}
	x.peer = make([]int32, len(keys))
	for i := 0; i < len(keys); {
		p := uint32(keys[i])
		j := i + 1
		for j < len(keys) && edge(keys[j]) == edge(keys[i]) {
			j++
		}
		switch j - i {
		case 1:
			x.peer[p] = -1
		case 2:
			q := uint32(keys[i+1])
			x.peer[p], x.peer[q] = owner[q], owner[p]
		default:
			return nil, fmt.Errorf("simulate: edge %d claimed by %d nodes", edge(keys[i]), j-i)
		}
		i = j
	}
	return x, nil
}

// ball returns the ranks of the origins within distance t of v in the view,
// ascending, or nil when v is not among its own view's origins. For targets
// within t these distances equal original-graph distances: every vertex of
// a shortest path of length <= t lies in B_{G,t}(v), which the collection
// covers.
func (x *viewIndex) ball(v graph.NodeID, t int) []int32 {
	s, ok := slices.BinarySearch(x.origins, v)
	if !ok {
		return nil
	}
	dist := make([]int32, len(x.origins))
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int32{int32(s)}
	// The search stops early once every origin is reached.
	for head := 0; head < len(queue) && len(queue) < len(x.origins); head++ {
		u := queue[head]
		if int(dist[u]) >= t {
			continue
		}
		for _, w := range x.peer[x.start[u]:x.start[u+1]] {
			if w >= 0 && dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	slices.Sort(queue)
	return queue
}

// replayGraph builds the replay graph of v's ball (nil: v alone): the ball's
// origins with their complete port lists, first in the returned identity
// map and in ascending order. Edges leaving the ball get their far endpoint
// as a "phantom" node — the known origin beyond distance t when the
// collection heard of it, or a synthetic node otherwise. Phantoms sit at
// distance >= t+1 from v, so their (arbitrary) behaviour cannot influence v
// within t rounds; they exist so that boundary nodes of the ball see their
// true degree.
func (x *viewIndex) replayGraph(v graph.NodeID, ball []int32, n int) (*graph.Graph, []graph.NodeID, error) {
	if ball == nil {
		return graph.New(1), []graph.NodeID{v}, nil
	}
	nb := int32(len(ball))
	slot := make([]int32, len(x.origins)) // replay node of each origin rank, or -1
	for i := range slot {
		slot[i] = -1
	}
	idmap := make([]graph.NodeID, nb, 2*nb)
	edges := 0
	for i, a := range ball {
		slot[a] = int32(i)
		idmap[i] = x.origins[a]
		edges += int(x.start[a+1] - x.start[a])
	}
	type pend struct {
		e    graph.EdgeID
		a, b int32
	}
	pends := make([]pend, 0, edges)
	synth := graph.NodeID(n) // synthetic phantom identities start beyond all real IDs
	for i, a := range ball {
		for j, e := range x.ports[a] {
			far := x.peer[x.start[a]+int32(j)]
			if far >= 0 && far < a && slot[far] >= 0 && slot[far] < nb {
				continue // added from its other endpoint, earlier in the ball
			}
			if far < 0 {
				id := synth
				synth++
				r, known := slices.BinarySearch(x.origins, id)
				if !known {
					pends = append(pends, pend{e: e, a: int32(i), b: int32(len(idmap))})
					idmap = append(idmap, id)
					continue
				}
				far = int32(r)
			}
			if slot[far] < 0 {
				slot[far] = int32(len(idmap))
				idmap = append(idmap, x.origins[far])
			}
			pends = append(pends, pend{e: e, a: int32(i), b: slot[far]})
		}
	}
	rg := graph.NewWithCapacity(len(idmap), len(pends))
	for _, p := range pends {
		if p.a == p.b {
			return nil, nil, fmt.Errorf("simulate: reconstructed self-loop on edge %d", p.e)
		}
		if err := rg.AddEdgeWithID(p.e, graph.NodeID(p.a), graph.NodeID(p.b)); err != nil {
			return nil, nil, fmt.Errorf("simulate: rebuilding ball of %d: %w", v, err)
		}
	}
	return rg, idmap, nil
}

// viewOrigins returns a view's origins in ascending order.
func viewOrigins(view map[graph.NodeID][]graph.EdgeID) []graph.NodeID {
	origins := make([]graph.NodeID, 0, len(view))
	for u := range view {
		origins = append(origins, u)
	}
	slices.Sort(origins)
	return origins
}

// viewDigest hashes a view: its origins in ascending order, each with the
// length and the end points of its port list. Equal views hash equal; the
// rest of each port list is left to sameView, which a digest match must
// pass. In a collection every origin's port list is one payload, so views
// that differ differ in their origins.
func viewDigest(view map[graph.NodeID][]graph.EdgeID, origins []graph.NodeID) uint64 {
	h := uint64(len(origins))
	for _, u := range origins {
		ports := view[u]
		h = mix(mix(h, uint64(u)), uint64(len(ports)))
		if len(ports) > 0 {
			h = mix(mix(h, uint64(ports[0])), uint64(ports[len(ports)-1]))
		}
	}
	return h
}

// sameView reports whether views a and b, with ascending origins oa and ob,
// are equal: the same origins with the same port lists in the same order.
func sameView(a, b map[graph.NodeID][]graph.EdgeID, oa, ob []graph.NodeID) bool {
	if !slices.Equal(oa, ob) {
		return false
	}
	for _, u := range oa {
		pa, pb := a[u], b[u]
		if len(pa) != len(pb) {
			return false
		}
		if len(pa) > 0 && &pa[0] == &pb[0] {
			continue // one collected payload, forwarded to both nodes
		}
		if !slices.Equal(pa, pb) {
			return false
		}
	}
	return true
}

// ballDigest hashes a ball of view group g.
func ballDigest(g int32, ball []int32) uint64 {
	h := mix(uint64(g), uint64(len(ball)))
	for _, r := range ball {
		h = mix(h, uint64(r))
	}
	return h
}

// mix folds x into the running digest h (a multiply–xorshift step).
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}
