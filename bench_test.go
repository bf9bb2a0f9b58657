package repro_test

// One benchmark per experiment in DESIGN.md §4. Each runs the experiment's
// quick configuration and fails if the paper-shape check does not hold, so
// `go test -bench=.` doubles as a full reproduction pass at bench scale.
// The full-size tables in EXPERIMENTS.md come from cmd/experiments.

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/simulate"
	"repro/internal/xrand"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var ex experiments.Experiment
	for _, e := range experiments.All() {
		if e.ID == id {
			ex = e
		}
	}
	if ex.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		rep := ex.Run(true)
		if !rep.Pass {
			b.Fatalf("experiment %s failed its shape check:\n%s", id, rep)
		}
	}
}

func BenchmarkE1SpannerSize(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2Stretch(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3Rounds(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4Messages(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkE5Baseline(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6Hierarchy(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7Scheme1(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8TwoStage(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE10PeelingAblation(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11Crossover(b *testing.B)       { benchExperiment(b, "E11") }

// BenchmarkSchemes enumerates the scheme registry: every registered
// execution strategy runs the same workload under one engine, with the
// message cost surfaced as a custom metric by a registered observer — no
// hardcoded call sites, so a newly registered scheme is benchmarked for
// free. The spanner cache is disabled so each iteration prices the full
// pipeline; BenchmarkSchemesAmortized measures the cached steady state.
func BenchmarkSchemes(b *testing.B) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(11))
	spec := repro.MaxID(3)
	for _, s := range repro.Schemes() {
		b.Run(s.Name(), func(b *testing.B) {
			var msgs int64
			eng := repro.NewEngine(
				repro.WithSeed(5),
				repro.WithConcurrency(-1),
				repro.WithNoCache(),
				repro.WithObserver(repro.ObserverFuncs{
					OnPhase: func(c repro.PhaseCost) { msgs += c.Messages },
				}),
			)
			for i := 0; i < b.N; i++ {
				msgs = 0
				if _, err := eng.RunScheme(context.Background(), s, g, spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(msgs), "msgs/op")
		})
	}
}

// BenchmarkSchemesUnderDrop prices the adversary layer: the same workload
// as BenchmarkSchemes under the shipped drop10 profile (10% message loss),
// with the honest bill and the adversary's share surfaced as custom
// metrics. The scheme slice is the profile-tolerant subset — schemes whose
// convergecast stages legitimately fail under loss are pinned by the
// golden suite instead.
func BenchmarkSchemesUnderDrop(b *testing.B) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(11))
	spec := repro.MaxID(3)
	profile, ok := repro.NamedAdversary("drop10")
	if !ok {
		b.Fatal("drop10 profile missing from the registry")
	}
	for _, name := range []string{"direct", "scheme1", "scheme2", "gossip-earlystop"} {
		b.Run(name, func(b *testing.B) {
			eng := repro.NewEngine(
				repro.WithSeed(5),
				repro.WithConcurrency(-1),
				repro.WithNoCache(),
				repro.WithAdversary(profile),
			)
			var msgs, dropped int64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(context.Background(), name, g, spec)
				if err != nil {
					b.Fatal(err)
				}
				msgs, dropped = res.Messages, 0
				for _, ph := range res.Phases {
					dropped += ph.Dropped
				}
			}
			b.ReportMetric(float64(msgs), "msgs/op")
			b.ReportMetric(float64(dropped), "dropped/op")
		})
	}
}

// BenchmarkSchemesAmortized demonstrates the amortization curve the paper
// predicts for repeated runs: for every sampler-based scheme, "cold"
// reconstructs the stage-1 spanner each iteration (WithNoCache) while
// "warm" reuses one engine whose cache was primed before the timer — the
// paper's intended experiment-sweep usage, where only the collection phases
// remain on the per-run bill.
func BenchmarkSchemesAmortized(b *testing.B) {
	g := gen.ConnectedGNP(120, 0.08, xrand.New(11))
	spec := repro.MaxID(3)
	for _, s := range repro.Schemes() {
		name := s.Name()
		if name == "direct" || name == "gossip" || name == "gossip-earlystop" || name == "gossip-converge" {
			continue // no stage-1 construction to amortize
		}
		for _, mode := range []string{"cold", "warm"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				opts := []repro.Option{
					repro.WithSeed(5),
					repro.WithConcurrency(-1),
				}
				if mode == "cold" {
					opts = append(opts, repro.WithNoCache())
				}
				eng := repro.NewEngine(opts...)
				var msgs int64
				run := func() {
					res, err := eng.RunScheme(context.Background(), s, g, spec)
					if err != nil {
						b.Fatal(err)
					}
					msgs = res.Messages
				}
				if mode == "warm" {
					run() // prime the cache outside the timer
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(msgs), "msgs/op")
			})
		}
	}
}

// BenchmarkLongGossipMemory demonstrates the round-ledger bound on a long
// gossip schedule (the regime the streaming metrics sink exists for): run
// with -benchmem and compare ledger=true against ledger=false at the two
// round scales. The retained ledger (surfaced as the ledgerB/op metric)
// grows linearly with the schedule when enabled — 8 bytes per executed
// round — and is identically zero when disabled, while rounds, messages,
// and coverage stay bit-identical; with the ledger disabled the only
// round-dependent state left is the compact arrival-round billing record,
// whose size is bounded by arrival events, not rounds.
func BenchmarkLongGossipMemory(b *testing.B) {
	g := gen.ConnectedGNP(24, 0.2, xrand.New(6))
	payloads := make([]any, g.NumNodes())
	for _, rounds := range []int{1000, 10000} {
		for _, ledger := range []bool{true, false} {
			b.Run(fmt.Sprintf("rounds=%d/ledger=%v", rounds, ledger), func(b *testing.B) {
				b.ReportAllocs()
				var ledgerBytes float64
				for i := 0; i < b.N; i++ {
					res, err := broadcast.Gossip(context.Background(), g, payloads, rounds,
						local.Config{Seed: 7, NoLedger: !ledger})
					if err != nil {
						b.Fatal(err)
					}
					if res.Run.Rounds != rounds+1 {
						b.Fatalf("executed %d rounds, want %d", res.Run.Rounds, rounds+1)
					}
					if ledger != (res.Run.PerRound != nil) {
						b.Fatalf("ledger=%v but PerRound has %d entries", ledger, len(res.Run.PerRound))
					}
					ledgerBytes = float64(len(res.Run.PerRound)) * 8
				}
				b.ReportMetric(ledgerBytes, "ledgerB/op")
			})
		}
	}
}

// Micro-benchmarks of the building blocks, with message costs surfaced as
// custom metrics.

func BenchmarkSamplerCentralized(b *testing.B) {
	g := gen.ConnectedGNP(2000, 0.02, xrand.New(1))
	b.ResetTimer()
	var samples int64
	for i := 0; i < b.N; i++ {
		res, err := core.Build(g, core.Default(2, 4), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		samples = res.TotalSamples
	}
	b.ReportMetric(float64(samples), "samples/op")
}

func BenchmarkSamplerDistributed(b *testing.B) {
	g := gen.ConnectedGNP(600, 0.05, xrand.New(2))
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		res, err := core.BuildDistributed(g, core.Default(2, 4), uint64(i), local.Config{Concurrent: true})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Run.Messages
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}

// BenchmarkSamplerDistributedTorus is the distributed Sampler in the regime
// where its draws dominate: on the 64×64 torus each root draws thousands of
// query edges per trial from a pool of a few dozen boundary edges. Its B/op
// is gated in CI, so a trial broadcast that again carries every
// with-replacement draw, rather than the distinct ones, fails.
func BenchmarkSamplerDistributedTorus(b *testing.B) {
	g := gen.Torus(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		res, err := core.BuildDistributed(g, core.Default(1, 3), 5, local.Config{Concurrent: true})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Run.Messages
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}

func BenchmarkLocalEngineSequential(b *testing.B) {
	benchLocalEngine(b, false)
}

func BenchmarkLocalEngineConcurrent(b *testing.B) {
	benchLocalEngine(b, true)
}

// The engine benchmarks always report allocations: they are the perf
// trajectory's hot-path series (BENCH_10.json) and the subject of CI's
// allocation-regression gate (cmd/bench -ceiling).
func benchLocalEngine(b *testing.B, concurrent bool) {
	b.Helper()
	g := gen.ConnectedGNP(2000, 0.01, xrand.New(3))
	spec := repro.MaxID(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := simulate.Direct(context.Background(), g, spec, uint64(i), local.Config{Concurrent: concurrent}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectOnSpanner(b *testing.B) {
	g := gen.Complete(300)
	sp, err := core.Build(g, core.Default(2, 4), 1)
	if err != nil {
		b.Fatal(err)
	}
	h, err := g.SubgraphByEdges(sp.S)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		coll, err := simulate.Collect(context.Background(), g, h, sp.StretchBound()*2, uint64(i), local.Config{Concurrent: true})
		if err != nil {
			b.Fatal(err)
		}
		msgs = coll.Run.Messages
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}

func BenchmarkReplay(b *testing.B) {
	g := gen.ConnectedGNP(300, 0.05, xrand.New(4))
	spec := repro.MaxID(3)
	coll, err := simulate.Collect(context.Background(), g, g, spec.T, 7, local.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coll.Replay(spec, repro.NodeID(i%g.NumNodes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayAllN measures the whole replay sweep on both sides of the
// ball-sharing property, sequentially so ns/op is total work. complete160
// is K₁₆₀ under MaxID(2): every ball is the whole graph, so one replay
// serves every node. torus64 is the 64×64 torus under MaxID(1), collected
// over the Sampler's spanner for stretch·t rounds as scheme1 does: large
// diameter, views far larger than balls, and no two balls alike.
func BenchmarkReplayAllN(b *testing.B) {
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		g    *repro.Graph
		spec repro.AlgorithmSpec
	}{
		{"complete160", gen.Complete(160), repro.MaxID(2)},
		{"torus64", gen.Torus(64, 64), repro.MaxID(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st1, _, err := simulate.BuildStage1(ctx, bc.g, simulate.Scheme1Params(1), 5, local.Config{}, simulate.Hooks{})
			if err != nil {
				b.Fatal(err)
			}
			coll, err := simulate.Collect(ctx, bc.g, st1.Host, st1.Stretch*bc.spec.T, 5, local.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coll.ReplayAllN(ctx, bc.spec, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE12GlobalCompute(b *testing.B) { benchExperiment(b, "E12") }

func BenchmarkE13BitComplexity(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE14SpannerQuality(b *testing.B) { benchExperiment(b, "E14") }

func BenchmarkE15ElkinNeimanStage(b *testing.B) { benchExperiment(b, "E15") }

func BenchmarkE16RegistryFidelity(b *testing.B) { benchExperiment(b, "E16") }
