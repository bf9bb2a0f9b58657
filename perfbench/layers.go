package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/simulate"
)

// The functions here time calls into one layer each. They use the same
// settings the facade derives from WithConcurrency(-1): the concurrent
// engine with GOMAXPROCS workers and the round ledger on.

func concurrentConfig() local.Config { return local.Config{Concurrent: true} }

// buildGraph times gen.Build under a "gen.build" span.
func buildGraph(tr *tracer, spec gen.Spec) (*graph.Graph, error) {
	sp := tr.begin("gen.build", 0, 0)
	g, err := gen.Build(spec)
	tr.end(sp)
	return g, err
}

// layerScheme1 rebuilds scheme1 from its layers — the Sampler
// (simulate.BuildStage1), the collection flood (simulate.Collect) and one
// Collection.Replay per node, fanned out as Collection.ReplayAllN does —
// and checks the outputs against want, the facade's hash.
func layerScheme1(ctx context.Context, tr *tracer, lm *layerMetrics, o *outcome, g *graph.Graph, spec repro.AlgorithmSpec, seed uint64, want string) {
	run := tr.newRun()
	pipe := tr.begin("pipeline:scheme1", 0, run)
	defer tr.end(pipe)
	o.attempted++
	cfg := concurrentConfig()
	cfg.Seed = seed

	t0 := time.Now()
	sp := tr.begin("sampler", pipe, run)
	st1, cost, err := simulate.BuildStage1(ctx, g, simulate.Scheme1Params(1), seed, cfg, simulate.Hooks{})
	tr.end(sp)
	if err != nil {
		o.fail("layer sampler: %v", err)
		return
	}
	lm.add("sampler.ms", ms(time.Since(t0)))
	lm.add("sampler.rounds", float64(cost.Rounds))
	lm.add("sampler.msgs", float64(cost.Messages))
	lm.add("sampler.spanner_frac", float64(len(st1.S))/float64(g.NumEdges()))

	t0 = time.Now()
	sp = tr.begin("collect", pipe, run)
	coll, err := simulate.Collect(ctx, g, st1.Host, st1.Stretch*spec.T, seed, cfg)
	tr.end(sp)
	if err != nil {
		o.fail("layer collect: %v", err)
		return
	}
	lm.add("collect.ms", ms(time.Since(t0)))
	lm.add("collect.msgs", float64(coll.Run.Messages))
	var view float64
	for _, known := range coll.Ports {
		view += float64(len(known))
	}
	view /= float64(len(coll.Ports))
	lm.add("collect.view_per_node", view)

	outs, ok := layerReplay(ctx, tr, lm, o, coll, spec, pipe, run)
	if !ok {
		return
	}
	if h := outputsHash(outs); h != want {
		o.fail("layer scheme1: outputs %s, facade %s", h, want)
	}
	ballProperties(lm, g, spec.T, view)
}

// layerReplay replays every node of coll with one timed Collection.Replay
// call each, over core.ParallelFor with GOMAXPROCS workers.
func layerReplay(ctx context.Context, tr *tracer, lm *layerMetrics, o *outcome, coll *simulate.Collection, spec repro.AlgorithmSpec, parent, run int) ([]any, bool) {
	n := len(coll.Ports)
	outs := make([]any, n)
	nodeUS := make([]float64, n)
	t0 := time.Now()
	rs := tr.begin("replay", parent, run)
	err := core.ParallelFor(ctx, n, -1, func(v int) error {
		a := time.Now()
		out, err := coll.Replay(spec, graph.NodeID(v))
		b := time.Now()
		tr.add("replay.node", rs, run, a, b)
		outs[v], nodeUS[v] = out, float64(b.Sub(a))/float64(time.Microsecond)
		return err
	})
	tr.end(rs)
	if err != nil {
		o.fail("layer replay: %v", err)
		return nil, false
	}
	lm.add("replay.ms", ms(time.Since(t0)))
	for _, us := range nodeUS {
		lm.add("replay.node_us_p50", us)
		lm.add("replay.node_us_p99", us)
	}
	return outs, true
}

// ballProperties measures how much of the input has the properties a
// replay optimisation could use: mean |B_t(v)| over the mean collected view
// (ball-restricted replay), and the share of nodes whose t-ball equals
// another node's (view dedupe).
func ballProperties(lm *layerMetrics, g *graph.Graph, t int, view float64) {
	n := g.NumNodes()
	count := make(map[string]int, n)
	keys := make([]string, n)
	var size float64
	for v := 0; v < n; v++ {
		ball := g.Ball(graph.NodeID(v), t) // ascending node order
		size += float64(len(ball))
		keys[v] = fmt.Sprint(ball)
		count[keys[v]]++
	}
	dup := 0
	for _, k := range keys {
		if count[k] > 1 {
			dup++
		}
	}
	lm.add("replay.ball_over_view", size/float64(n)/view)
	lm.add("replay.ball_dup_frac", float64(dup)/float64(n))
}

// layerGossip times simulate.GossipCollectEarly and the replay of its
// collection, and checks the outputs against want.
func layerGossip(ctx context.Context, tr *tracer, lm *layerMetrics, o *outcome, g *graph.Graph, spec repro.AlgorithmSpec, seed uint64, want string) {
	run := tr.newRun()
	pipe := tr.begin("pipeline:gossip-earlystop", 0, run)
	defer tr.end(pipe)
	o.attempted++
	t0 := time.Now()
	sp := tr.begin("gossip", pipe, run)
	coll, cover, msgs, err := simulate.GossipCollectEarly(ctx, g, spec.T, 100*g.NumNodes(), seed, concurrentConfig())
	tr.end(sp)
	if err != nil || cover < 0 {
		o.fail("layer gossip: cover %d, err %v", cover, err)
		return
	}
	lm.add("gossip.ms", ms(time.Since(t0)))
	lm.add("gossip.cover_round", float64(cover))
	lm.add("gossip.msgs", float64(msgs))
	sp = tr.begin("replay(gossip)", pipe, run)
	outs, err := coll.ReplayAllN(ctx, spec, -1)
	tr.end(sp)
	if err != nil {
		o.fail("layer gossip replay: %v", err)
		return
	}
	if h := outputsHash(outs); h != want {
		o.fail("layer gossip: outputs %s, facade %s", h, want)
	}
}

// layerLocal times simulate.Direct on the concurrent and the sequential
// engine, and checks both against want.
func layerLocal(ctx context.Context, tr *tracer, lm *layerMetrics, o *outcome, g *graph.Graph, spec repro.AlgorithmSpec, seed uint64, want string) (conc time.Duration) {
	var seq time.Duration
	for _, concurrent := range []bool{true, false} {
		run := tr.newRun()
		name := "local"
		if !concurrent {
			name = "local.seq"
		}
		o.attempted++
		t0 := time.Now()
		sp := tr.begin(name, 0, run)
		outs, res, err := simulate.Direct(ctx, g, spec, seed, local.Config{Concurrent: concurrent})
		tr.end(sp)
		d := time.Since(t0)
		if err != nil {
			o.fail("layer %s: %v", name, err)
			return 0
		}
		if h := outputsHash(outs); h != want {
			o.fail("layer %s: outputs %s, facade %s", name, h, want)
		}
		if !concurrent {
			seq = d
			continue
		}
		conc = d
		lm.add("local.ms", ms(d))
		lm.add("local.ns_per_msg", float64(d)/float64(max(res.Messages, 1)))
		lm.add("local.ns_per_node_round", float64(d)/float64(g.NumNodes()*max(res.Rounds, 1)))
	}
	lm.add("local.conc_speedup", float64(seq)/float64(conc))
	return conc
}

// layerAdversary times simulate.Direct under a shipped adversary profile,
// compiled for the run seed as the facade does, and checks the outputs
// against want (the facade's first-run hash for the same profile).
func layerAdversary(ctx context.Context, tr *tracer, lm *layerMetrics, o *outcome, g *graph.Graph, spec repro.AlgorithmSpec, seed uint64, profile, want string, base time.Duration) {
	p, ok := adversary.Named(profile)
	if !ok {
		o.fail("layer adversary: unknown profile %s", profile)
		return
	}
	cfg := concurrentConfig()
	cfg.Adversary = adversary.Compile(p, seed)
	o.attempted++
	t0 := time.Now()
	sp := tr.begin("local.adv:"+profile, 0, tr.newRun())
	outs, res, err := simulate.Direct(ctx, g, spec, seed, cfg)
	tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		o.fail("layer adversary %s: %v", profile, err)
		return
	}
	if h := outputsHash(outs); h != want {
		o.fail("layer adversary %s: outputs %s, facade %s", profile, h, want)
	}
	if base > 0 {
		lm.add("adversary.slowdown."+profile, float64(d)/float64(base))
	}
	if res.Dropped > 0 {
		lm.add("adversary.dropped_frac", float64(res.Dropped)/float64(res.Messages))
	}
}
