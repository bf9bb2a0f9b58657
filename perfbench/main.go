// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time, checks every output against a reference, and
// prints its metrics as the last line of standard output:
//
//	go run . --workload dense-warm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 the run also makes a traced pass that records spans
// around calls into each layer and reports the per-layer metrics, the
// layers' self times and the tracing overhead. A human-readable report,
// stamped with the machine and commit, goes to standard error, and a record
// of the run (plus, when traced, its spans) is written under --out.
//
// The process exits non-zero when any output fails its check. README.md
// describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The end-to-end and per-layer lists
// below are the benchmark's contract: BENCHMARK.json declares exactly these
// names and units (a test keeps the two in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"batch_s", "s"},
	{"msgs_billed", "count"},
	{"rounds_billed", "count"},
	{"peak_rss_mb", "MB"},
	{"lat_ms_p50", "ms"},
	{"lat_ms_p99", "ms"},
}

var perLayer = []metricDef{
	{"gen.build_ms", "ms"},
	{"cache.hit_frac", "ratio"},
	{"sampler.ms", "ms"},
	{"sampler.rounds", "count"},
	{"sampler.msgs", "count"},
	{"sampler.spanner_frac", "ratio"},
	{"collect.ms", "ms"},
	{"collect.msgs", "count"},
	{"collect.view_per_node", "count"},
	{"replay.ms", "ms"},
	{"replay.self_ms", "ms"},
	{"replay.share", "ratio"},
	{"replay.share_scheme1", "ratio"},
	{"replay.node_us_p50", "us"},
	{"replay.node_us_p99", "us"},
	{"replay.ball_over_view", "ratio"},
	{"replay.ball_dup_frac", "ratio"},
	{"stage2.collect_ms", "ms"},
	{"stage2.replay_ms", "ms"},
	{"gossip.ms", "ms"},
	{"gossip.cover_round", "count"},
	{"gossip.msgs", "count"},
	{"local.ms", "ms"},
	{"local.ns_per_msg", "ns"},
	{"local.ns_per_node_round", "ns"},
	{"local.conc_speedup", "ratio"},
	{"adversary.slowdown.drop10", "ratio"},
	{"adversary.slowdown.delay2", "ratio"},
	{"adversary.dropped_frac", "ratio"},
	{"serve.server_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.cached_frac", "ratio"},
	{"serve.reject_frac", "ratio"},
	{"serve.max_rps", "1/s"},
	{"loadgen.late_ms_max", "ms"},
	{"gc.cpu_frac", "ratio"},
	{"alloc.mb_per_run", "MB"},
	{"trace.overhead_s", "s"},
}

// config is one invocation's settings.
type config struct {
	seed   uint64
	budget time.Duration // measuring time
	traced bool
	setups int  // set-up repetitions; setup_s is their median
	tiny   bool // test-sized inputs
}

// workload runs one named input set under cfg.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*outcome, error)
}

var workloads = []workload{
	{"dense-warm", denseWarm},
	{"sparse-cold", sparseCold},
	{"direct-large", directLarge},
	{"serve-mix", serveMix},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what a workload run measured and checked.
type outcome struct {
	setup     []float64 // seconds, one per set-up repetition
	passes    []float64 // seconds per untraced pass over the run list
	traced    []float64 // seconds per traced pass
	lat       []float64 // ms per operation
	rss       []float64 // peak resident MB per timed pass
	msgs      int64     // bill of one pass over the run list
	rounds    int64
	attempted int
	failed    int
	failures  []string
	// extra holds end-to-end figures reported by name but not gated
	// (their values can be exactly zero or jump between ladder rungs).
	extra map[string]metricValue
	layer map[string]float64 // per-layer metrics, traced runs only
	spans []span
}

func newOutcome() *outcome {
	return &outcome{extra: map[string]metricValue{}, layer: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// bill records one pass's bill; every later pass must repeat it exactly.
func (o *outcome) bill(pass int, msgs, rounds int64) {
	if pass == 0 {
		o.msgs, o.rounds = msgs, rounds
		return
	}
	if msgs != o.msgs || rounds != o.rounds {
		o.fail("pass %d billed %d msgs / %d rounds, first pass %d / %d", pass, msgs, rounds, o.msgs, o.rounds)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndValues derives the gated end-to-end metrics.
func (o *outcome) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":       median(o.setup),
		"batch_s":       median(o.passes),
		"msgs_billed":   float64(o.msgs),
		"rounds_billed": float64(o.rounds),
		"peak_rss_mb":   median(o.rss),
		"lat_ms_p50":    median(o.lat),
		"lat_ms_p99":    percentile(o.lat, 0.99),
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: dense-warm, sparse-cold, direct-large or serve-mix")
		seed    = flag.Uint64("seed", 1, "workload seed; the inputs are generated from it")
		seconds = flag.Int("seconds", 25, "measuring time in seconds")
		trace   = flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "runs"), "directory for run records and trace files")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, setups: 3}
	code, err := execute(context.Background(), w, cfg, *out, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// execute runs the workload, writes the record, prints the report to
// report and the result line to stdout, and returns the exit code: 0 when
// every output checked, 1 otherwise.
func execute(ctx context.Context, w workload, cfg config, outDir string, stdout, report io.Writer) (int, error) {
	steal0, total0 := cpuTicks()
	o, err := w.run(ctx, cfg)
	steal1, total1 := cpuTicks()
	if err == nil && o.attempted == 0 {
		err = errors.New("no operation ran")
	}
	if err != nil {
		return 1, fmt.Errorf("%s: %w", w.name, err)
	}
	st := stampNow()
	if total1 > total0 {
		st.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	e2e := o.endToEndValues()
	line := resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	vals := e2e
	if cfg.traced {
		defs, vals = perLayer, o.layer
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	writeReport(report, w.name, cfg, st, o, e2e)
	if err := writeRecord(outDir, w.name, cfg, st, o, e2e); err != nil {
		fmt.Fprintf(report, "perfbench: record not written: %v\n", err)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1, fmt.Errorf("%s: %d of %d operations failed their check", w.name, line.Failed, line.Attempted)
	}
	return 0, nil
}

// writeReport prints every metric by name with its unit, plus the stamp.
func writeReport(w io.Writer, name string, cfg config, st stamp, o *outcome, e2e map[string]float64) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.0f trace=%v\n", name, cfg.seed, cfg.budget.Seconds(), cfg.traced)
	fmt.Fprintf(w, "  machine: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s steal=%.1f%%\n", st.NProc, st.GoMaxProcs, st.GoVersion, st.CPU, st.Commit, 100*st.StealFrac)
	q1, q3 := quartiles(o.passes)
	fmt.Fprintf(w, "  %-22s %14.4f s      median of %d set-ups\n", "setup_s", e2e["setup_s"], len(o.setup))
	fmt.Fprintf(w, "  %-22s %14.4f s      median of %d passes (q1 %.4f, q3 %.4f)\n", "batch_s", e2e["batch_s"], len(o.passes), q1, q3)
	fmt.Fprintf(w, "  %-22s %14.0f count\n", "msgs_billed", e2e["msgs_billed"])
	fmt.Fprintf(w, "  %-22s %14.0f count\n", "rounds_billed", e2e["rounds_billed"])
	fmt.Fprintf(w, "  %-22s %14.4f ratio  (%d of %d operations)\n", "fail_frac", ratio(o.failed, o.attempted), o.failed, o.attempted)
	fmt.Fprintf(w, "  %-22s %14.1f MB     median of %d pass peaks\n", "peak_rss_mb", e2e["peak_rss_mb"], len(o.rss))
	fmt.Fprintf(w, "  %-22s %14.3f ms     %d samples\n", "lat_ms_p50", e2e["lat_ms_p50"], len(o.lat))
	fmt.Fprintf(w, "  %-22s %14.3f ms     %d samples\n", "lat_ms_p99", e2e["lat_ms_p99"], len(o.lat))
	for _, k := range sortedKeys(o.extra) {
		fmt.Fprintf(w, "  %-22s %14.4f %s\n", k, o.extra[k].Value, o.extra[k].Unit)
	}
	if cfg.traced {
		fmt.Fprintf(w, "  per-layer:\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "    %-26s %14.4f %s\n", d.name, o.layer[d.name], d.unit)
		}
		fmt.Fprintf(w, "  self times (ms, summed over the traced pass and layer pass):\n")
		times := selfTimes(o.spans)
		for _, k := range sortedKeys(times) {
			t := times[k]
			fmt.Fprintf(w, "    %-26s n=%-6d total %12.3f  self %12.3f\n", k, t.Count, t.Total, t.Self)
		}
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// record is the run's archived form: stamp, every metric, failures and, for
// traced runs, the spans with their self times.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Stamp     stamp                  `json:"stamp"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	EndToEnd  map[string]float64     `json:"end_to_end"`
	Extra     map[string]metricValue `json:"extra,omitempty"`
	PerLayer  map[string]float64     `json:"per_layer,omitempty"`
	SelfTimes map[string]layerTime   `json:"self_times,omitempty"`
	Samples   map[string][]float64   `json:"samples"`
	Spans     []span                 `json:"spans,omitempty"`
}

func writeRecord(dir, name string, cfg config, st stamp, o *outcome, e2e map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := record{
		Workload: name, Seed: cfg.seed, Seconds: cfg.budget.Seconds(), Traced: cfg.traced, Stamp: st,
		Attempted: o.attempted, Failed: o.failed, Failures: o.failures,
		EndToEnd: e2e, Extra: o.extra,
		Samples: map[string][]float64{"setup_s": o.setup, "batch_s": o.passes, "traced_batch_s": o.traced, "lat_ms": o.lat, "peak_rss_mb": o.rss},
	}
	if cfg.traced {
		rec.PerLayer = o.layer
		rec.SelfTimes = selfTimes(o.spans)
		rec.Spans = o.spans
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	trace := 0
	if cfg.traced {
		trace = 1
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, cfg.seed, trace))
	return os.WriteFile(file, b, 0o644)
}
