// Package simulate implements the paper's Section 6: message-efficient
// simulation of arbitrary t-round LOCAL algorithms.
//
// The pipeline follows the paper exactly. In a t-round LOCAL algorithm, the
// computation of node v depends only on the initial knowledge — identity,
// input, incident edge IDs — of the nodes in its ball B_{G,t}(v). The
// simulation therefore (1) performs t-local broadcast of every node's
// initial knowledge, flooding over a spanner H with stretch α for α·t
// rounds, and (2) has every node locally reconstruct its exact t-ball and
// re-execute the algorithm on it ("replay"). Unique edge IDs make the
// reconstruction possible: two collected nodes are adjacent iff their port
// lists share an edge ID.
//
// Scheme1 realizes Theorem 3's first trade-off (spanner built by algorithm
// Sampler, then one collection); Scheme2With realizes the second, two-stage
// trade-off (Sampler's spanner simulates an off-the-shelf spanner
// construction — Baswana–Sen here, substituting for Derbel et al., see
// DESIGN.md — whose output spanner then carries the final collection).
package simulate

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/algorithms"
	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/local"
)

// Collection is the outcome of the t-local broadcast of port lists: for
// every node, the port list of every node it heard about.
type Collection struct {
	// N is the size of the original network (for replays).
	N int
	// Seed is the run seed shared by the original network and all replays.
	Seed uint64
	// Ports[v] maps each origin u that v heard about to u's incident edge
	// IDs in the original graph.
	Ports []map[graph.NodeID][]graph.EdgeID
	// Run is the cost of the collection phase.
	Run local.Result
}

// portsOf extracts every node's (sorted) incident edge list from g.
func portsOf(g *graph.Graph) []any {
	out := make([]any, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		inc := g.Incident(graph.NodeID(v))
		edges := make([]graph.EdgeID, len(inc))
		for i, h := range inc {
			edges[i] = h.Edge
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		out[v] = edges
	}
	return out
}

// Collect floods every node's original-graph port list over host for the
// given number of rounds. host must span the same node set as g (it is g
// itself for the direct baseline, or a spanner of g for the schemes).
// Cancelling ctx aborts the flood mid-round.
func Collect(ctx context.Context, g, host *graph.Graph, rounds int, seed uint64, cfg local.Config) (*Collection, error) {
	if g.NumNodes() != host.NumNodes() {
		return nil, fmt.Errorf("simulate: host spans %d nodes, graph has %d", host.NumNodes(), g.NumNodes())
	}
	cfg.Seed = seed
	fl, err := broadcast.Flood(ctx, host, portsOf(g), rounds, cfg)
	if err != nil {
		return nil, err
	}
	return collectionFrom(g, fl.Known, seed, fl.Run), nil
}

// CollectBudget is Collect under a CONGEST-style bandwidth cap: every
// directed host edge carries at most bw words per round, so oversized port
// lists are split across consecutive rounds (see broadcast.FloodBudget). The
// returned collection holds exactly the knowledge Collect would have
// gathered; only the round schedule (and hence Run.Rounds) dilates.
func CollectBudget(ctx context.Context, g, host *graph.Graph, rounds, bw int, seed uint64, cfg local.Config) (*Collection, error) {
	if g.NumNodes() != host.NumNodes() {
		return nil, fmt.Errorf("simulate: host spans %d nodes, graph has %d", host.NumNodes(), g.NumNodes())
	}
	cfg.Seed = seed
	fl, err := broadcast.FloodBudget(ctx, host, portsOf(g), rounds, bw, cfg)
	if err != nil {
		return nil, err
	}
	return collectionFrom(g, fl.Known, seed, fl.Run), nil
}

// GossipCollect performs the same collection by push–pull gossip (the
// baseline family of Censor-Hillel et al. and Haeupler). It runs for
// maxRounds rounds and additionally reports the earliest round at which
// every t-ball was covered (-1 if never) and the messages spent by then.
func GossipCollect(ctx context.Context, g *graph.Graph, t, maxRounds int, seed uint64, cfg local.Config) (*Collection, int, int64, error) {
	cfg.Seed = seed
	gos, err := broadcast.Gossip(ctx, g, portsOf(g), maxRounds, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	cover := broadcast.CoverRound(g, gos.Arrival, t)
	var msgs int64
	if cover >= 0 {
		if msgs, err = gos.MessagesThrough(cover); err != nil {
			return nil, 0, 0, fmt.Errorf("simulate: gossip cover billing: %w", err)
		}
	}
	return collectionFrom(g, gos.Known, seed, gos.Run), cover, msgs, nil
}

// GossipCollectEarly is GossipCollect with central early stopping: the same
// schedule, seed, and per-round behaviour, but the round loop ends the
// moment every node's distance-t ball is covered. The cover round and the
// message bill through it are bit-identical to GossipCollect's (the executed
// prefix is the same execution); only the schedule's dead tail — and its
// wall clock — disappears. The collection holds exactly the knowledge
// gossip had delivered by the cover round, which suffices for every replay.
func GossipCollectEarly(ctx context.Context, g *graph.Graph, t, maxRounds int, seed uint64, cfg local.Config) (*Collection, int, int64, error) {
	cfg.Seed = seed
	bi := broadcast.NewBallIndex(g, t)
	gos, cover, err := broadcast.GossipUntilCover(ctx, g, portsOf(g), bi, maxRounds, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	var msgs int64
	if cover >= 0 {
		if msgs, err = gos.MessagesThrough(cover); err != nil {
			return nil, 0, 0, fmt.Errorf("simulate: gossip cover billing: %w", err)
		}
	}
	return collectionFrom(g, gos.Known, seed, gos.Run), cover, msgs, nil
}

func collectionFrom(g *graph.Graph, known []map[graph.NodeID]any, seed uint64, run local.Result) *Collection {
	coll := &Collection{N: g.NumNodes(), Seed: seed, Run: run}
	coll.Ports = make([]map[graph.NodeID][]graph.EdgeID, len(known))
	for v, kn := range known {
		m := make(map[graph.NodeID][]graph.EdgeID, len(kn))
		for origin, payload := range kn {
			m[origin] = payload.([]graph.EdgeID)
		}
		coll.Ports[v] = m
	}
	return coll
}

// Direct runs the algorithm directly on g — the ground truth and the
// Θ(t·m)-message baseline.
func Direct(ctx context.Context, g *graph.Graph, spec algorithms.Spec, seed uint64, cfg local.Config) ([]any, local.Result, error) {
	protos := make([]local.Protocol, g.NumNodes())
	cfg.Seed = seed
	cfg.MaxRounds = spec.T + 1
	run, err := local.RunCtx(ctx, g, func(v graph.NodeID) local.Protocol {
		protos[v] = spec.New(v)
		return protos[v]
	}, cfg)
	if err != nil {
		return nil, local.Result{}, err
	}
	if !run.Halted {
		return nil, run, fmt.Errorf("simulate: %s did not halt in %d rounds", spec.Name, spec.T)
	}
	out := make([]any, len(protos))
	for v, p := range protos {
		out[v] = spec.Output(p)
	}
	return out, run, nil
}
