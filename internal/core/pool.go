package core

import (
	"context"
	"sort"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// ParallelFor runs fn(0), ..., fn(n-1) over a worker pool. The workers knob
// follows the facade's concurrency convention: 0 runs inline sequentially,
// w > 0 uses w workers, w < 0 uses GOMAXPROCS workers. Results must be
// written to caller-owned, index-disjoint slots, which keeps the output
// deterministic regardless of scheduling.
//
// It delegates to the shared scheduler in internal/sched — the same package
// that backs the LOCAL engine's worker pool — and is re-exported here so the
// facade's existing call sites keep compiling. See sched.ParallelFor for the
// cancellation and first-error semantics.
func ParallelFor(ctx context.Context, n, workers int, fn func(i int) error) error {
	return sched.ParallelFor(ctx, n, workers, fn)
}

// edgePool is the distributed root's view of X_v: the cluster's unexplored
// boundary edges, supporting O(1) uniform sampling (with replacement) and
// O(1) removal. Unlike the centralized neighborhood structure, the root does
// NOT know which cluster an edge leads to — that is the whole point of the
// algorithm — so removal happens by explicit edge sets carried in query
// replies.
type edgePool struct {
	list []graph.EdgeID
	pos  map[graph.EdgeID]int
}

// newEdgePool builds a pool over the given edges. The input is copied and
// sorted so pool evolution is deterministic.
func newEdgePool(edges []graph.EdgeID) *edgePool {
	p := &edgePool{
		list: append([]graph.EdgeID(nil), edges...),
		pos:  make(map[graph.EdgeID]int, len(edges)),
	}
	sort.Slice(p.list, func(i, j int) bool { return p.list[i] < p.list[j] })
	for i, e := range p.list {
		p.pos[e] = i
	}
	return p
}

func (p *edgePool) empty() bool { return len(p.list) == 0 }
func (p *edgePool) size() int   { return len(p.list) }

// contains reports whether e is still unexplored.
func (p *edgePool) contains(e graph.EdgeID) bool {
	_, ok := p.pos[e]
	return ok
}

// drawDistinct makes count uniform draws with replacement from the pool and
// returns the distinct edges drawn, in first-draw order. Every draw consumes
// the RNG, repeats included, so the stream does not depend on how many
// distinct edges come up. It returns nil on an empty pool.
func (p *edgePool) drawDistinct(rng *xrand.RNG, count int) []graph.EdgeID {
	n := len(p.list)
	if n == 0 {
		return nil
	}
	drawn := make([]bool, n) // by pool position
	var out []graph.EdgeID
	for i := 0; i < count; i++ {
		j := rng.Intn(n)
		if !drawn[j] {
			drawn[j] = true
			out = append(out, p.list[j])
		}
	}
	return out
}

// remove deletes e if present.
func (p *edgePool) remove(e graph.EdgeID) {
	i, ok := p.pos[e]
	if !ok {
		return
	}
	last := len(p.list) - 1
	moved := p.list[last]
	p.list[i] = moved
	p.pos[moved] = i
	p.list = p.list[:last]
	delete(p.pos, e)
}

// removeAll deletes every listed edge that is present (peeling a replying
// cluster's boundary out of X_v).
func (p *edgePool) removeAll(edges []graph.EdgeID) {
	for _, e := range edges {
		p.remove(e)
	}
}

// snapshot returns the remaining edges in sorted order (used by the
// fail-safe broadcast, whose content must be deterministic).
func (p *edgePool) snapshot() []graph.EdgeID {
	out := append([]graph.EdgeID(nil), p.list...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
