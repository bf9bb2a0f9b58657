package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/graph/gen"
)

// denseWarm is the paper's regime: the complete graph K₁₆₀, MaxID(2), run
// by scheme1, scheme2 and gossip-earlystop on one engine whose stage-1
// spanner cache is primed during set-up. Every ball is the whole graph.
func denseWarm(ctx context.Context, cfg config) (*outcome, error) {
	return runBatch(ctx, cfg, func(ctx context.Context, cfg config, tr *tracer) (*batchInput, error) {
		n := 160
		if cfg.tiny {
			n = 12
		}
		spec := repro.MaxID(2)
		seed := derive(cfg.seed, 0)
		g, err := buildGraph(tr, gen.Spec{Family: "complete", N: n})
		if err != nil {
			return nil, err
		}
		// WithSpannerParams(1, 3, 0) is exactly the schemes' default γ=1
		// coupling, so BuildSpanner primes the cache key the runs use.
		eng := repro.NewEngine(repro.WithSeed(seed), repro.WithConcurrency(-1), repro.WithSpannerParams(1, 3, 0))
		if _, err := eng.BuildSpanner(ctx, g); err != nil {
			return nil, fmt.Errorf("priming the spanner cache: %w", err)
		}
		want, err := directHash(ctx, eng, g, spec)
		if err != nil {
			return nil, err
		}
		shared := func() *repro.Engine { return eng }
		var ops []*op
		for _, s := range []string{"scheme1", "scheme2", "gossip-earlystop"} {
			ops = append(ops, &op{name: s, scheme: s, engine: shared, g: g, spec: spec, want: want})
		}
		in := &batchInput{ops: ops}
		in.layers = func(ctx context.Context, tr *tracer, lm *layerMetrics, o *outcome) {
			layerScheme1(ctx, tr, lm, o, g, spec, seed, want)
			layerGossip(ctx, tr, lm, o, g, spec, seed, want)
			layerLocal(ctx, tr, lm, o, g, spec, seed, want)
		}
		return in, nil
	})
}

// sparseCold is a seed sweep on the 64×64 torus, MaxID(1): scheme1 and
// gossip-earlystop, each run on a fresh engine so the spanner cache always
// misses. Balls are tiny next to the collected views and no two coincide.
func sparseCold(ctx context.Context, cfg config) (*outcome, error) {
	return runBatch(ctx, cfg, func(ctx context.Context, cfg config, tr *tracer) (*batchInput, error) {
		side, sweep := 64, 3
		if cfg.tiny {
			side, sweep = 6, 1
		}
		spec := repro.MaxID(1)
		g, err := buildGraph(tr, gen.Spec{Family: "torus", Rows: side, Cols: side})
		if err != nil {
			return nil, err
		}
		var ops []*op
		seeds := make([]uint64, sweep)
		for i := range seeds {
			seed := derive(cfg.seed, uint64(i))
			seeds[i] = seed
			want, err := directHash(ctx, repro.NewEngine(repro.WithSeed(seed)), g, spec)
			if err != nil {
				return nil, err
			}
			fresh := func() *repro.Engine {
				return repro.NewEngine(repro.WithSeed(seed), repro.WithConcurrency(-1))
			}
			for _, s := range []string{"scheme1", "gossip-earlystop"} {
				ops = append(ops, &op{name: fmt.Sprintf("%s/seed=%d", s, seed), scheme: s, engine: fresh, g: g, spec: spec, want: want})
			}
		}
		in := &batchInput{ops: ops}
		in.layers = func(ctx context.Context, tr *tracer, lm *layerMetrics, o *outcome) {
			want := ops[0].want
			layerScheme1(ctx, tr, lm, o, g, spec, seeds[0], want)
			layerGossip(ctx, tr, lm, o, g, spec, seeds[0], want)
			layerLocal(ctx, tr, lm, o, g, spec, seeds[0], want)
		}
		return in, nil
	})
}

// directLarge is G(n=65 536, average degree 8), direct only: MIS and
// Coloring at their whp budgets and MaxID(8), each without an adversary and
// under drop10 and delay2. Only the LOCAL engine works here.
func directLarge(ctx context.Context, cfg config) (*outcome, error) {
	return runBatch(ctx, cfg, func(ctx context.Context, cfg config, tr *tracer) (*batchInput, error) {
		n := 1 << 16
		if cfg.tiny {
			n = 256
		}
		g, err := buildGraph(tr, gen.Spec{Family: "gnp", N: n, Degree: 8, Seed: derive(cfg.seed, 0)})
		if err != nil {
			return nil, err
		}
		specs := []repro.AlgorithmSpec{
			repro.MIS(repro.MISRounds(n)),
			repro.Coloring(repro.ColoringRounds(n)),
			repro.MaxID(8),
		}
		profiles := []string{"", "drop10", "delay2"}
		var ops []*op
		seeds := make([]uint64, len(specs))
		for i, spec := range specs {
			seeds[i] = derive(cfg.seed, uint64(i+1))
			// Runs without an adversary must match the sequential engine's
			// outputs; adversarial runs are pinned to their first run.
			want, err := directHash(ctx, repro.NewEngine(repro.WithSeed(seeds[i])), g, spec)
			if err != nil {
				return nil, err
			}
			for _, prof := range profiles {
				opts := []repro.Option{repro.WithSeed(seeds[i]), repro.WithConcurrency(-1)}
				name := spec.Name
				if prof != "" {
					p, ok := repro.NamedAdversary(prof)
					if !ok {
						return nil, fmt.Errorf("unknown adversary profile %s", prof)
					}
					opts = append(opts, repro.WithAdversary(p))
					name += "/" + prof
				}
				x := &op{name: name, scheme: "direct", g: g, spec: spec}
				if prof == "" {
					x.want = want
				}
				eng := repro.NewEngine(opts...)
				x.engine = func() *repro.Engine { return eng }
				ops = append(ops, x)
			}
		}
		in := &batchInput{ops: ops}
		in.layers = func(ctx context.Context, tr *tracer, lm *layerMetrics, o *outcome) {
			for i, spec := range specs {
				k := len(profiles) * i
				base := layerLocal(ctx, tr, lm, o, g, spec, seeds[i], ops[k].want)
				for j, prof := range profiles[1:] {
					layerAdversary(ctx, tr, lm, o, g, spec, seeds[i], prof, ops[k+1+j].want, base)
				}
			}
		}
		return in, nil
	})
}

// directHash runs direct on eng's configuration and hashes its outputs.
func directHash(ctx context.Context, eng *repro.Engine, g *repro.Graph, spec repro.AlgorithmSpec) (string, error) {
	res, err := eng.Run(ctx, "direct", g, spec)
	if err != nil {
		return "", fmt.Errorf("direct reference: %w", err)
	}
	return outputsHash(res.Outputs), nil
}
