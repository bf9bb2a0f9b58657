package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"repro"
)

// op is one operation of a batch workload's run list: a scheme run through
// the facade whose outputs are checked against want.
type op struct {
	name   string
	scheme string
	engine func() *repro.Engine // called once per run; may return a shared engine
	g      *repro.Graph
	spec   repro.AlgorithmSpec
	// want is the expected outputs hash. Runs without an adversary carry
	// direct's hash from set-up; an adversarial run starts empty and is
	// pinned to its own first run's hash.
	want string
	// times holds the run's wall times (ms) over the timed untraced passes.
	times []float64
}

// batchInput is what a batch workload's set-up produces.
type batchInput struct {
	ops []*op
	// layers is the traced layer pass: it rebuilds the workload's pipelines
	// from calls into each layer, records spans and per-layer metrics, and
	// checks that the rebuilt outputs equal the facade's.
	layers func(ctx context.Context, tr *tracer, lm *layerMetrics, o *outcome)
}

// runBatch is the run loop shared by the batch workloads. It sets up (inputs,
// graphs, reference outputs, primed caches) cfg.setups times, makes one
// untimed warm-up pass over the run list, then makes timed passes until the
// budget is spent. Traced runs follow each timed pass with a traced pass
// and a layer pass, so the tracing overhead is measured against passes made
// in the same process.
func runBatch(ctx context.Context, cfg config, setup func(ctx context.Context, cfg config, tr *tracer) (*batchInput, error)) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var in *batchInput
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		x, err := setup(ctx, cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		in = x
	}
	lm := newLayerMetrics()
	mem := startMemWatch()
	defer mem.close()
	start := time.Now()
	// The first pass warms the heap and pins the adversarial runs' hashes
	// and the bill; its times are not kept.
	_, msgs, rounds, cacheRuns, cacheHits := batchPass(ctx, in.ops, nil, o)
	o.bill(0, msgs, rounds)
	for _, x := range in.ops {
		x.times = nil
	}
	for pass := 1; ; pass++ {
		t0 := time.Now()
		runtime.GC() // every pass starts from the same heap state
		mem.take()
		ps0 := readProcStats()
		d, msgs, rounds, runs, hits := batchPass(ctx, in.ops, nil, o)
		ps1 := readProcStats()
		o.rss = append(o.rss, mem.take())
		o.passes = append(o.passes, d.Seconds())
		o.bill(pass, msgs, rounds)
		cacheRuns, cacheHits = cacheRuns+runs, cacheHits+hits
		gcFrac, mb := procDelta(ps0, ps1, len(in.ops))
		lm.add("gc.cpu_frac", gcFrac)
		lm.add("alloc.mb_per_run", mb)
		if cfg.traced {
			runtime.GC()
			d, msgs, rounds, runs, hits := batchPass(ctx, in.ops, tr, o)
			o.traced = append(o.traced, d.Seconds())
			o.bill(pass, msgs, rounds)
			cacheRuns, cacheHits = cacheRuns+runs, cacheHits+hits
			in.layers(ctx, tr, lm, o)
		}
		if time.Since(start)+time.Since(t0) > cfg.budget {
			break
		}
	}
	// An operation's latency is its median over the passes, so one slow
	// pass does not decide the tail of a list of only a few operations.
	for _, x := range in.ops {
		o.lat = append(o.lat, median(x.times))
	}
	if cfg.traced {
		o.spans = tr.snapshot()
		o.layer = lm.finish(o.spans)
		o.layer["cache.hit_frac"] = ratio(cacheHits, cacheRuns)
		o.layer["trace.overhead_s"] = median(o.traced) - median(o.passes)
	}
	return o, nil
}

// batchPass runs the run list once and returns its wall time, bill and
// stage-1 cache statistics. With a tracer, every run carries a phase clock.
func batchPass(ctx context.Context, ops []*op, tr *tracer, o *outcome) (d time.Duration, msgs, rounds int64, stage1Runs, stage1Hits int) {
	start := time.Now()
	for _, x := range ops {
		eng := x.engine()
		var extra []repro.Option
		var clock *phaseClock
		if tr != nil {
			clock = &phaseClock{last: map[string]time.Time{}}
			extra = append(extra, repro.WithObserver(clock))
		}
		t0 := time.Now()
		res, err := eng.RunWith(ctx, x.scheme, x.g, x.spec, extra...)
		t1 := time.Now()
		o.attempted++
		if tr == nil {
			x.times = append(x.times, ms(t1.Sub(t0)))
		}
		if err != nil {
			o.fail("%s: %v", x.name, err)
			continue
		}
		h := outputsHash(res.Outputs)
		switch {
		case x.want == "":
			x.want = h
		case h != x.want:
			o.fail("%s: outputs %s, want %s", x.name, h, x.want)
		}
		msgs += res.Messages
		rounds += int64(res.Rounds)
		for _, ph := range res.Phases {
			switch ph.Name {
			case "sampler":
				stage1Runs++
			case "sampler(cached)":
				stage1Runs++
				stage1Hits++
			}
		}
		clock.record(tr, x.scheme, t0, t1)
	}
	return time.Since(start), msgs, rounds, stage1Runs, stage1Hits
}

// phaseClock is an Observer that timestamps a run's rounds and phase
// completions. Observers fire on the run's own goroutine, so it needs no
// locking.
type phaseClock struct {
	last  map[string]time.Time // phase -> its latest round
	marks []phaseMark
}

type phaseMark struct {
	name            string
	lastRound, done time.Time
}

func (c *phaseClock) RoundCompleted(phase string, _ int, _ int64) { c.last[phase] = time.Now() }

func (c *phaseClock) PhaseCompleted(cost repro.PhaseCost) {
	c.marks = append(c.marks, phaseMark{name: cost.Name, lastRound: c.last[cost.Name], done: time.Now()})
}

// record turns the timestamps into spans under one run span: a span per
// phase, a "post:" child for the gap between a phase's last round and its
// completion (post-processing such as scheme2's stage-2 replay), and
// "replay(final)" for the gap between the last phase and the run's return.
func (c *phaseClock) record(tr *tracer, scheme string, t0, t1 time.Time) {
	if c == nil || tr == nil {
		return
	}
	run := tr.newRun()
	root := tr.add("run:"+scheme, 0, run, t0, t1)
	prev := t0
	for _, m := range c.marks {
		ph := tr.add("phase:"+m.name, root, run, prev, m.done)
		if !m.lastRound.IsZero() && m.lastRound.After(prev) {
			tr.add("post:"+m.name, ph, run, m.lastRound, m.done)
		}
		prev = m.done
	}
	tr.add("replay(final)", root, run, prev, t1)
}

// outputsHash fingerprints node outputs exactly as the service's
// outputs_fnv does: FNV-1a over "index=value;" in node order.
func outputsHash(outputs []any) string {
	h := fnv.New64a()
	for i, v := range outputs {
		fmt.Fprintf(h, "%d=%v;", i, v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// derive returns the i-th seed of the stream named by seed (splitmix64), so
// every input of a run follows from the one --seed.
func derive(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) % 1_000_000
}

// layerMetrics accumulates per-layer samples over the traced passes and
// reduces each to its mean (or, for the "_p50"/"_p99" figures, the
// percentile over all samples).
type layerMetrics struct {
	samples map[string][]float64
}

func newLayerMetrics() *layerMetrics { return &layerMetrics{samples: map[string][]float64{}} }

func (l *layerMetrics) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// finish reduces the samples, adds the span-derived figures and fills every
// declared per-layer metric a workload does not exercise with 0.
func (l *layerMetrics) finish(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = 0
	}
	for k, xs := range l.samples {
		switch {
		case strings.HasSuffix(k, "_p50"):
			out[k] = percentile(xs, 0.50)
		case strings.HasSuffix(k, "_p99"):
			out[k] = percentile(xs, 0.99)
		default:
			out[k] = mean(xs)
		}
	}
	// Phase spans from the facade runs.
	var runAll, replayAll, runS1, replayS1 float64
	var st2Phase, st2Post, genBuild []float64
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "run:"):
			runAll += ms(s.dur())
			if s.Name == "run:scheme1" {
				runS1 += ms(s.dur())
			}
		case s.Name == "replay(final)":
			replayAll += ms(s.dur())
			if byID[s.Parent].Name == "run:scheme1" {
				replayS1 += ms(s.dur())
			}
		case s.Name == "gen.build":
			genBuild = append(genBuild, ms(s.dur()))
		case s.Name == "phase:simulate-bs" || s.Name == "phase:simulate-en":
			st2Phase = append(st2Phase, ms(s.dur()))
		case s.Name == "post:simulate-bs" || s.Name == "post:simulate-en":
			st2Post = append(st2Post, ms(s.dur()))
		}
	}
	if t, ok := selfTimes(spans)["replay"]; ok {
		out["replay.self_ms"] = t.Self / float64(t.Count)
	}
	if len(genBuild) > 0 {
		out["gen.build_ms"] = mean(genBuild)
	}
	if runAll > 0 {
		out["replay.share"] = replayAll / runAll
	}
	if runS1 > 0 {
		out["replay.share_scheme1"] = replayS1 / runS1
	}
	if len(st2Phase) > 0 {
		out["stage2.collect_ms"] = mean(st2Phase) - mean(st2Post)
		out["stage2.replay_ms"] = mean(st2Post)
	}
	return out
}
