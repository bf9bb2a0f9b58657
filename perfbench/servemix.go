package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/graph/gen"
	"repro/internal/serve"
)

// serve-mix sends a replayable request mix to POST /v1/simulate on an
// in-process internal/serve server over loopback, through at most nproc
// client connections. Its run has three phases, sharing the measuring time:
//
//   - batch: closed loop, nproc clients, the fixed request list against a
//     fresh server per pass (batch_s, msgs_billed, rounds_billed);
//   - nominal: open loop at nominalRPS, evenly spaced, on a server warmed
//     by one untimed pass, each request timed from when it was due
//     (lat_ms_p50, lat_ms_p99);
//   - ladder: open loop at 2×, 4× and 8× the nominal rate; max_rps is the
//     highest rate whose p99 stays under latencyLimit without a growing
//     backlog.
//
// The nominal rate loads the two cores to about a third, so a slower
// moment of a shared machine lengthens service times without tipping the
// open loop into a growing queue.
const (
	nominalRPS   = 16.0
	latencyLimit = 500 * time.Millisecond
)

var serveSchemes = []string{"direct", "scheme1", "scheme2en", "gossip-earlystop", "hybrid"}

// spannerScheme reports whether a scheme reads the stage-1 spanner cache.
func spannerScheme(s string) bool { return s == "scheme1" || s == "scheme2en" || s == "hybrid" }

// serveCase is one request of the list with its expected answer.
type serveCase struct {
	body   []byte
	scheme string
	status int    // expected HTTP status
	want   string // expected outputs_fnv (200 only)
	fp     string // expected graph fingerprint (200 only)
}

// serveConfig is the service configuration: one shard per core, so at most
// nproc runs execute at once, each with GOMAXPROCS simulator workers.
func serveConfig() serve.Config {
	return serve.Config{Shards: runtime.NumCPU(), Concurrency: -1}
}

// graphChoice is one topology of the mix, as the request names it and as
// the server normalizes it.
type graphChoice struct {
	req serve.GraphSpec
	gen gen.Spec
}

// serveRequests builds the request list from seed. The mix is balanced:
// every (graph, scheme, t) combination appears once, so seeds change the
// order, the topologies' random draws and the run seeds, not the mix's
// composition.
func serveRequests(seed uint64, tiny bool) ([]graphChoice, []serveRequest) {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	n, side := 64, 12
	ts := []int{1, 2}
	if tiny {
		n, side, ts = 16, 4, []int{1}
	}
	g1, g2 := derive(seed, 10), derive(seed, 11)
	graphs := []graphChoice{
		{serve.GraphSpec{Family: "gnp", N: n, Deg: 8, Seed: g1}, gen.Spec{Family: "gnp", N: n, Degree: 8, Seed: g1}},
		{serve.GraphSpec{Family: "gnp", N: n, Deg: 8, Seed: g2}, gen.Spec{Family: "gnp", N: n, Degree: 8, Seed: g2}},
		{serve.GraphSpec{Family: "torus", N: side * side}, gen.Spec{Family: "torus", Rows: side, Cols: side}},
	}
	runSeeds := []uint64{derive(seed, 20), derive(seed, 21), derive(seed, 22)}
	// Run seeds cycle through each graph's combinations, so every graph's
	// spanner schemes meet the same set of stage-1 cache keys under any
	// seed. One combination per graph runs under drop10: a tenth of the mix.
	var reqs []serveRequest
	combos := len(serveSchemes) * len(ts)
	for gi := range graphs {
		for c := 0; c < combos; c++ {
			r := serveRequest{graph: gi, scheme: serveSchemes[c/len(ts)], t: ts[c%len(ts)], seed: runSeeds[c%len(runSeeds)]}
			if c == (4*gi+3)%combos {
				r.adversary = "drop10"
			}
			reqs = append(reqs, r)
		}
	}
	// Two invalid requests must get 400.
	reqs = append(reqs,
		serveRequest{graph: 0, scheme: "direct", t: 99, seed: runSeeds[0], invalid: true},
		serveRequest{graph: 2, scheme: "scheme1", t: 1, seed: runSeeds[1], adversary: "no-such-profile", invalid: true})
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return graphs, reqs
}

type serveRequest struct {
	graph     int
	scheme    string
	t         int
	seed      uint64
	adversary string
	invalid   bool
}

func (r serveRequest) body(graphs []graphChoice) ([]byte, error) {
	req := serve.SimulateRequest{
		Scheme:    r.scheme,
		Graph:     graphs[r.graph].req,
		Algorithm: serve.AlgoSpec{Name: "maxid", T: r.t},
		Options:   serve.RunOptions{Seed: r.seed},
	}
	if r.adversary != "" {
		req.Options.Adversary = &repro.AdversaryProfile{Name: r.adversary}
	}
	return json.Marshal(req)
}

// serveSetup generates the request list, builds its topologies in process,
// computes every valid request's expected outputs_fnv and starts a server.
// The references are direct's outputs for runs without an adversary and the
// same scheme's own in-process run under the same profile otherwise.
func serveSetup(ctx context.Context, cfg config, tr *tracer) ([]*serveCase, *server, error) {
	graphs, reqs := serveRequests(cfg.seed, cfg.tiny)
	built := make([]*repro.Graph, len(graphs))
	for i, gc := range graphs {
		g, err := buildGraph(tr, gc.gen)
		if err != nil {
			return nil, nil, err
		}
		built[i] = g
	}
	eng := repro.NewEngine(repro.WithRoundLedger(false))
	memo := map[string]string{}
	var cases []*serveCase
	for _, r := range reqs {
		b, err := r.body(graphs)
		if err != nil {
			return nil, nil, err
		}
		c := &serveCase{body: b, scheme: r.scheme, status: http.StatusBadRequest}
		cases = append(cases, c)
		if r.invalid {
			continue
		}
		c.status = http.StatusOK
		c.fp = fmt.Sprintf("%016x", built[r.graph].Fingerprint())
		scheme := "direct"
		opts := []repro.Option{repro.WithSeed(r.seed)}
		if r.adversary != "" {
			scheme = r.scheme
			p, _ := repro.NamedAdversary(r.adversary)
			opts = append(opts, repro.WithAdversary(p))
		}
		key := fmt.Sprintf("%s/%d/%d/%d/%s", scheme, r.graph, r.t, r.seed, r.adversary)
		if _, ok := memo[key]; !ok {
			res, err := eng.RunWith(ctx, scheme, built[r.graph], repro.MaxID(r.t), opts...)
			if err != nil {
				return nil, nil, fmt.Errorf("reference %s: %w", key, err)
			}
			memo[key] = outputsHash(res.Outputs)
		}
		c.want = memo[key]
	}
	srv, err := startServer(serveConfig())
	if err != nil {
		return nil, nil, err
	}
	return cases, srv, nil
}

// server is an in-process service on a loopback port.
type server struct {
	svc  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: serve.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.svc.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := http.Get(s.url + "/v1/healthz")
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("server health check: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("server health check: status %d", resp.StatusCode)
	}
	return s, nil
}

// stop shuts the server down and waits for its goroutines.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // in-flight requests finish or are cut at the timeout
	<-s.done
	s.svc.Close()
}

// reply is one answered (or failed) request.
type reply struct {
	status int
	resp   serve.SimulateResponse
	err    error
	sent   time.Time
	done   time.Time
}

func post(client *http.Client, url string, body []byte) reply {
	r := reply{sent: time.Now()}
	resp, err := client.Post(url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	raw, err := io.ReadAll(resp.Body)
	r.done = time.Now()
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode == http.StatusOK {
		r.err = json.Unmarshal(raw, &r.resp)
	}
	return r
}

// check classifies a reply: ok, rejected (429, counted apart), or failed
// with a reason. A dropped connection, a 5xx, any unexpected status and an
// output mismatch all fail.
func check(c *serveCase, r reply) (ok, rejected bool, why string) {
	switch {
	case r.err != nil:
		return false, false, fmt.Sprintf("transport: %v", r.err)
	case r.status == http.StatusTooManyRequests:
		return false, true, ""
	case r.status != c.status:
		return false, false, fmt.Sprintf("status %d, want %d", r.status, c.status)
	case r.status != http.StatusOK:
		return true, false, ""
	case r.resp.OutputsFNV != c.want:
		return false, false, fmt.Sprintf("%s outputs_fnv %s, reference %s", c.scheme, r.resp.OutputsFNV, c.want)
	case r.resp.GraphFingerprint != c.fp:
		return false, false, fmt.Sprintf("graph fingerprint %s, want %s", r.resp.GraphFingerprint, c.fp)
	}
	return true, false, ""
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// serveTally accumulates request outcomes over one phase.
type serveTally struct {
	lat            []float64 // ms from due time; refused and failed requests count as missing the limit
	byCase         map[*serveCase][]float64
	sendLat        []float64 // ms from send
	serverMS       []float64
	late           []float64
	rejected       int
	cached, spcRun int // spanner_cached among 200s (only spanner schemes set it); spanner-scheme 200s
	msgs, rounds   int64
}

func newTally() *serveTally { return &serveTally{byCase: map[*serveCase][]float64{}} }

// caseMedians returns each request's median latency over its repetitions.
func (t *serveTally) caseMedians() []float64 {
	var out []float64
	for _, xs := range t.byCase {
		out = append(out, median(xs))
	}
	return out
}

// add records one request. lat and late are measured from the request's
// due time (its send time in a closed loop).
func (t *serveTally) add(o *outcome, c *serveCase, r reply, lat, late time.Duration, tr *tracer) {
	o.attempted++
	ok, rejected, why := check(c, r)
	if !ok {
		lat = max(lat, latencyLimit)
	}
	t.lat = append(t.lat, ms(lat))
	t.byCase[c] = append(t.byCase[c], ms(lat))
	t.late = append(t.late, ms(late))
	tr.add("serve.request", 0, tr.newRun(), r.sent, r.done)
	switch {
	case rejected:
		t.rejected++
		return
	case !ok:
		o.fail("serve-mix: %s", why)
		return
	}
	if r.status != http.StatusOK {
		return
	}
	t.sendLat = append(t.sendLat, ms(r.done.Sub(r.sent)))
	t.serverMS = append(t.serverMS, float64(r.resp.ElapsedMS))
	t.msgs += r.resp.Messages
	t.rounds += int64(r.resp.Rounds)
	if spannerScheme(c.scheme) {
		t.spcRun++
		if r.resp.SpannerCached {
			t.cached++
		}
	}
}

// closedLoop sends every case once through conns clients, each sending
// its next request when the previous one completes.
func closedLoop(ctx context.Context, client *http.Client, url string, cases []*serveCase, conns int, o *outcome, tr *tracer) (time.Duration, *serveTally) {
	tally := newTally()
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(cases) {
					return
				}
				r := post(client, url, cases[i].body)
				mu.Lock()
				tally.add(o, cases[i], r, r.done.Sub(r.sent), 0, tr)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(start), tally
}

// timing is one open-loop request's latency and lateness, both measured
// from the time it was due. sent is false for a request never sent because
// the context ended.
type timing struct {
	sent      bool
	lat, late time.Duration
}

// openLoop sends request i at start+due[i] through at most conns
// concurrent senders. A request waiting for a free sender is late, and its
// latency still counts from when it was due, so a stall is charged to every
// request it delays. send is called once per request.
func openLoop(ctx context.Context, due []time.Duration, conns int, send func(i int)) []timing {
	out := make([]timing, len(due))
	jobs := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				at := start.Add(due[i])
				sent := time.Now()
				send(i)
				out[i] = timing{sent: true, lat: time.Since(at), late: sent.Sub(at)}
			}
		}()
	}
	for i := range due {
		sleepCtx(ctx, time.Until(start.Add(due[i])))
		if ctx.Err() != nil {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// evenDue returns arrival offsets spaced evenly at rate per second over
// window. Even spacing, rather than Poisson arrivals, keeps burstiness out
// of the run-to-run spread.
func evenDue(rate float64, window time.Duration) []time.Duration {
	var due []time.Duration
	for i := 0; ; i++ {
		d := time.Duration(float64(i) / rate * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// openPhase runs one open-loop phase over the cases. The list repeats in a
// fresh seeded order each cycle, so the latency tail averages over many
// orderings instead of repeating one.
func openPhase(ctx context.Context, client *http.Client, url string, cases []*serveCase, rng *rand.Rand, due []time.Duration, conns int, o *outcome, tr *tracer) *serveTally {
	order := make([]int, 0, len(due)+len(cases))
	for len(order) < len(due) {
		order = append(order, rng.Perm(len(cases))...)
	}
	replies := make([]reply, len(due))
	timings := openLoop(ctx, due, conns, func(i int) {
		replies[i] = post(client, url, cases[order[i]].body)
	})
	tally := newTally()
	for i, tm := range timings {
		if tm.sent {
			tally.add(o, cases[order[i]], replies[i], tm.lat, tm.late, tr)
		}
	}
	return tally
}

// meetsLimit reports whether a phase kept its p99 under the latency limit
// and its backlog from growing: the last tenth of its requests must not be
// sent later than the limit.
func meetsLimit(t *serveTally) bool {
	if len(t.lat) == 0 || t.rejected > 0 {
		return false
	}
	if percentile(t.lat, 0.99) > ms(latencyLimit) {
		return false
	}
	tail := t.late[len(t.late)*9/10:]
	return percentile(tail, 1) <= ms(latencyLimit)
}

func serveMix(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	conns := runtime.NumCPU()
	var (
		cases []*serveCase
		srv   *server
	)
	for i := 0; i < cfg.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if cases, srv, err = serveSetup(ctx, cfg, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	client := newClient(conns)
	defer client.CloseIdleConnections()
	lm := newLayerMetrics()
	mem := startMemWatch()
	defer mem.close()
	start := time.Now()

	// Batch phase: fresh server per pass, so every pass sees the same cold
	// caches and bills exactly the same. Pass 0 is an untimed warm-up; a
	// traced run alternates untraced and traced passes after it.
	batchEnd := time.Duration(0.25 * float64(cfg.budget))
	var cacheRuns, cacheHits int
	for pass := 0; ; pass++ {
		if pass > 0 {
			srv.stop()
			var err error
			if srv, err = startServer(serveConfig()); err != nil {
				return nil, err
			}
		}
		traced := cfg.traced && pass > 0 && pass%2 == 0
		var ptr *tracer
		if traced {
			ptr = tr
		}
		runtime.GC() // every pass starts from the same heap state
		mem.take()
		ps0 := readProcStats()
		d, tally := closedLoop(ctx, client, srv.url, cases, conns, o, ptr)
		ps1 := readProcStats()
		peak := mem.take()
		switch {
		case pass == 0:
		case traced:
			o.traced = append(o.traced, d.Seconds())
		default:
			o.rss = append(o.rss, peak)
			o.passes = append(o.passes, d.Seconds())
			gcFrac, mb := procDelta(ps0, ps1, len(cases))
			lm.add("gc.cpu_frac", gcFrac)
			lm.add("alloc.mb_per_run", mb)
		}
		o.bill(pass, tally.msgs, tally.rounds)
		cacheRuns, cacheHits = cacheRuns+tally.spcRun, cacheHits+tally.cached
		perPass := time.Since(start) / time.Duration(pass+1)
		if time.Since(start)+perPass > batchEnd && (pass >= 2 || pass >= 1 && !cfg.traced) {
			break
		}
	}
	srv.stop()

	// Nominal and ladder phases share one server, warmed by an untimed
	// closed-loop pass so that they measure steady-state serving: graphs in
	// the LRU and every stage-1 spanner cached. The batch passes measure
	// the cold caches.
	srv, err := startServer(serveConfig())
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	closedLoop(ctx, client, srv.url, cases, conns, o, nil)
	rng := rand.New(rand.NewPCG(cfg.seed, 0x10ad))
	nominal := openPhase(ctx, client, srv.url, cases, rng,
		evenDue(nominalRPS, time.Duration(0.65*float64(cfg.budget))), conns, o, tr)
	// As on the batch workloads, the latency percentiles are taken over the
	// list's requests, each at its median over its repetitions: the raw tail
	// of a few hundred samples is decided by a handful of requests and
	// swings with the load on a shared machine. It is reported, not gated.
	o.lat = nominal.caseMedians()
	o.extra["lat_ms_p99_all_requests"] = metricValue{percentile(nominal.lat, 0.99), "ms"}
	maxRPS := 0.0
	rejected, sent := nominal.rejected, len(nominal.lat)
	if meetsLimit(nominal) {
		maxRPS = nominalRPS
		for _, mult := range []float64{2, 4, 8} {
			rate := nominalRPS * mult
			rung := openPhase(ctx, client, srv.url, cases, rng,
				evenDue(rate, time.Duration(0.03*float64(cfg.budget))), conns, o, nil)
			rejected, sent = rejected+rung.rejected, sent+len(rung.lat)
			if !meetsLimit(rung) {
				break
			}
			maxRPS = rate
		}
	}
	o.extra["max_rps"] = metricValue{maxRPS, "1/s"}
	o.extra["reject_frac"] = metricValue{ratio(rejected, sent), "ratio"}
	if cfg.traced {
		o.spans = tr.snapshot()
		o.layer = lm.finish(o.spans)
		o.layer["cache.hit_frac"] = ratio(cacheHits, cacheRuns)
		o.layer["serve.cached_frac"] = ratio(nominal.cached, len(nominal.serverMS))
		o.layer["serve.server_ms_p50"] = percentile(nominal.serverMS, 0.5)
		over := make([]float64, len(nominal.sendLat))
		for i := range over {
			over[i] = nominal.sendLat[i] - nominal.serverMS[i]
		}
		o.layer["serve.overhead_ms_p50"] = percentile(over, 0.5)
		o.layer["serve.reject_frac"] = ratio(rejected, sent)
		o.layer["serve.max_rps"] = maxRPS
		o.layer["loadgen.late_ms_max"] = percentile(nominal.late, 1)
		o.layer["trace.overhead_s"] = median(o.traced) - median(o.passes)
	}
	return o, nil
}
