package simulate

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/algorithms"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/globalcompute"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/spanner"
)

// ErrRoundBudget is the typed failure for runs that exceed their round
// budget: a scheme whose billed rounds overrun the configured MaxRounds, a
// gossip stage that fails to cover its t-balls within its budget, or a
// pipeline the engine's runaway guard had to cancel. Callers test for it
// with errors.Is.
var ErrRoundBudget = errors.New("simulate: round budget exceeded")

// PhaseCost is one pipeline stage's price. Dilation is nonzero only for
// bandwidth-budgeted stages: the factor by which the CONGEST-style word cap
// stretched the stage's round count relative to the unbudgeted LOCAL
// schedule. Dropped and Duplicated are the stage's adversary-induced losses
// and duplications (zero without an adversary); both kinds of perturbed
// message are already billed inside Messages — the honest-billing contract —
// so these fields attribute, not extend, the bill.
type PhaseCost struct {
	Name       string
	Rounds     int
	Messages   int64
	Dilation   float64
	Dropped    int64
	Duplicated int64
}

// RunCost bills a completed engine run as the named phase: its executed
// rounds and messages, with the adversary's drops and duplications
// attributed. Stages that bill only a prefix of their run (gossip through
// its cover round) overwrite Rounds and Messages and keep the attribution,
// which covers the whole executed run.
func RunCost(name string, run local.Result) PhaseCost {
	return PhaseCost{
		Name:       name,
		Rounds:     run.Rounds,
		Messages:   run.Messages,
		Dropped:    run.Dropped,
		Duplicated: run.Duplicated,
	}
}

// Hooks observes a scheme pipeline as it runs: Round fires after every
// simulator round (labeled with the phase it belongs to), Phase fires when a
// pipeline stage completes. Either may be nil. The zero Hooks observes
// nothing.
type Hooks struct {
	Round func(phase string, round int, messages int64)
	Phase func(cost PhaseCost)
}

// RoundConfig returns cfg with its OnRound callback bound to this phase.
func (h Hooks) RoundConfig(cfg local.Config, phase string) local.Config {
	if h.Round != nil {
		round := h.Round
		cfg.OnRound = func(r int, m int64) { round(phase, r, m) }
	}
	return cfg
}

// PhaseDone reports a completed stage.
func (h Hooks) PhaseDone(cost PhaseCost) {
	if h.Phase != nil {
		h.Phase(cost)
	}
}

// SchemeResult is the outcome of a message-reduction scheme: the collection
// from which any node's output can be replayed, plus full cost accounting.
type SchemeResult struct {
	Coll   *Collection
	Phases []PhaseCost
	// StretchUsed is the stretch bound of the spanner that carried the
	// final collection.
	StretchUsed int
	// SpannerEdges is that spanner's size.
	SpannerEdges int
	// FinalSpanner is the edge set of the spanner that carried the final
	// collection (Sampler's for Scheme1; the simulated off-the-shelf
	// construction's for Scheme2With).
	FinalSpanner map[graph.EdgeID]bool
}

// TotalMessages sums message costs across phases.
func (r *SchemeResult) TotalMessages() int64 {
	var t int64
	for _, p := range r.Phases {
		t += p.Messages
	}
	return t
}

// TotalRounds sums round costs across phases.
func (r *SchemeResult) TotalRounds() int {
	t := 0
	for _, p := range r.Phases {
		t += p.Rounds
	}
	return t
}

// Stage1 is a built stage-1 Sampler spanner together with its materialized
// host subgraph — the reusable artifact of the paper's amortization story:
// the one-off construction whose cost is shared by every collection that
// floods over it. A Stage1 is immutable once built and safe to share across
// concurrent pipeline runs (collections and replays only read it).
type Stage1 struct {
	// S is the spanner edge set.
	S map[graph.EdgeID]bool
	// Host is the materialized subgraph H = (V, S) that collections flood.
	Host *graph.Graph
	// Stretch is the certified stretch bound 2·3^K − 1.
	Stretch int
	// Rounds and Messages are the construction's costs.
	Rounds   int
	Messages int64
}

// Stage1Source supplies the stage-1 spanner for a scheme pipeline, together
// with the phase cost the pipeline should account for it. BuildStage1 is the
// default source (a fresh construction, phase "sampler"); an engine-level
// cache substitutes a source that returns a memoized Stage1 under the
// zero-cost phase "sampler(cached)".
type Stage1Source func(ctx context.Context, g *graph.Graph, p core.Params, seed uint64, cfg local.Config, hooks Hooks) (*Stage1, PhaseCost, error)

// BuildStage1 runs the distributed Sampler on g and materializes the host
// subgraph. Round events stream through hooks under phase "sampler"; the
// caller is responsible for firing PhaseDone with the returned cost (so a
// caching layer can substitute its own phase label on hits).
func BuildStage1(ctx context.Context, g *graph.Graph, p core.Params, seed uint64, cfg local.Config, hooks Hooks) (*Stage1, PhaseCost, error) {
	// Stage-1 construction is exempt from the adversary: the spanner is the
	// schemes' pre-provisioned reliable infrastructure (and the engine cache
	// keys spanners on (graph, seed, params) — profile-independent), so the
	// perturbations apply to the simulation traffic the spanner carries, not
	// to building the spanner itself.
	cfg.Adversary = nil
	sp, err := core.BuildDistributedCtx(ctx, g, p, seed, hooks.RoundConfig(cfg, "sampler"))
	if err != nil {
		return nil, PhaseCost{}, err
	}
	host, err := g.SubgraphByEdges(sp.S)
	if err != nil {
		return nil, PhaseCost{}, err
	}
	st1 := &Stage1{
		S:        sp.S,
		Host:     host,
		Stretch:  sp.StretchBound(),
		Rounds:   sp.Run.Rounds,
		Messages: sp.Run.Messages,
	}
	return st1, PhaseCost{Name: "sampler", Rounds: sp.Run.Rounds, Messages: sp.Run.Messages}, nil
}

// stage1 is every spanner-backed pipeline's prologue: it takes the stage-1
// spanner from src (a fresh BuildStage1 when src is nil), labels a failure
// with the pipeline's stage name, and reports the stage's phase.
func stage1(ctx context.Context, g *graph.Graph, p core.Params, seed uint64, cfg local.Config, hooks Hooks, src Stage1Source, stage string) (*Stage1, PhaseCost, error) {
	if src == nil {
		src = BuildStage1
	}
	st1, cost, err := src(ctx, g, p, seed, cfg, hooks)
	if err != nil {
		return nil, PhaseCost{}, fmt.Errorf("%s: %w", stage, err)
	}
	hooks.PhaseDone(cost)
	return st1, cost, nil
}

// carried packages a collection that the stage-1 spanner carried.
func (st1 *Stage1) carried(coll *Collection, phases ...PhaseCost) *SchemeResult {
	return &SchemeResult{
		Coll:         coll,
		Phases:       phases,
		StretchUsed:  st1.Stretch,
		SpannerEdges: len(st1.S),
		FinalSpanner: st1.S,
	}
}

// replayWorkers translates a simulator config into ParallelFor's concurrency
// knob: sequential runs replay sequentially, concurrent runs fan out over
// the configured worker count (GOMAXPROCS when unset).
func replayWorkers(cfg local.Config) int {
	if !cfg.Concurrent {
		return 0
	}
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return -1
}

// Scheme1 implements Theorem 3's first trade-off: build a spanner with the
// distributed Sampler (parameter γ = p.K), then t-local-broadcast the
// initial knowledge by flooding the spanner for stretch·t rounds. Round
// complexity O(3^γ·t + 6^γ); message complexity Õ(t·n^{1+2/(2^{γ+1}−1)})
// with the paper's parameter coupling h = 2^{γ+1}−1. src supplies the
// stage-1 spanner (nil means a fresh construction per call); an engine-level
// spanner cache passes its memoized source so repeated runs amortize it.
func Scheme1(ctx context.Context, g *graph.Graph, spec algorithms.Spec, p core.Params, seed uint64, cfg local.Config, hooks Hooks, src Stage1Source) (*SchemeResult, error) {
	st1, samplerCost, err := stage1(ctx, g, p, seed, cfg, hooks, src, "scheme1 spanner")
	if err != nil {
		return nil, err
	}
	coll, err := Collect(ctx, g, st1.Host, st1.Stretch*spec.T, seed, hooks.RoundConfig(cfg, "collect"))
	if err != nil {
		return nil, fmt.Errorf("scheme1 collection: %w", err)
	}
	collectCost := RunCost("collect", coll.Run)
	hooks.PhaseDone(collectCost)
	return st1.carried(coll, samplerCost, collectCost), nil
}

// Scheme1Params returns the paper's parameter coupling for scheme 1: level
// count γ and h = 2^{γ+1}−1 so that δ = 1/h and the message exponent
// becomes 1 + 2/(2^{γ+1}−1).
func Scheme1Params(gamma int) core.Params {
	return core.Default(gamma, (1<<(gamma+1))-1)
}

// Stage2 describes an off-the-shelf distributed spanner construction the
// two-stage scheme can simulate: a fixed-round-budget LOCAL protocol whose
// per-node output is its incident spanner edges.
type Stage2 struct {
	// Name labels the phase in cost tables.
	Name string
	// T is the protocol's fixed round budget.
	T int
	// Stretch is the construction's stretch bound.
	Stretch int
	// New builds a protocol instance.
	New func() local.Protocol
	// Output extracts a node's incident spanner edges.
	Output func(local.Protocol) map[graph.EdgeID]bool
}

// spec is the construction as an algorithm to replay. A node's output is its
// incident H' edges (both endpoints of every H' edge know it, by the
// protocols' accept messages).
func (st2 Stage2) spec() algorithms.Spec {
	return algorithms.Spec{
		Name:   st2.Name,
		T:      st2.T,
		New:    func(graph.NodeID) local.Protocol { return st2.New() },
		Output: func(pr local.Protocol) any { return st2.Output(pr) },
	}
}

// BaswanaSenStage2 is the Baswana–Sen construction as a stage-2 target:
// stretch 2k−1 in O(k²) rounds.
func BaswanaSenStage2(k int) Stage2 {
	return Stage2{
		Name:    "simulate-bs",
		T:       spanner.BSRounds(k),
		Stretch: 2*k - 1,
		New:     func() local.Protocol { return spanner.NewBSNode(k) },
		Output:  func(p local.Protocol) map[graph.EdgeID]bool { return p.(*spanner.BSNode).InS },
	}
}

// ElkinNeimanStage2 is the Elkin–Neiman construction as a stage-2 target:
// stretch 2k−1 in only k+O(1) rounds — the improvement the paper's
// concluding remarks anticipate (experiment E15 quantifies it).
func ElkinNeimanStage2(k int) Stage2 {
	return Stage2{
		Name:    "simulate-en",
		T:       spanner.ENRounds(k),
		Stretch: 2*k - 1,
		New:     func() local.Protocol { return spanner.NewENNode(k) },
		Output:  func(p local.Protocol) map[graph.EdgeID]bool { return p.(*spanner.ENNode).InS },
	}
}

// Scheme2With implements Theorem 3's second trade-off, the two-stage
// pipeline, with a pluggable off-the-shelf construction (the paper uses
// Derbel et al.; BaswanaSenStage2 substitutes for it, see DESIGN.md §3.2):
//
//  1. the distributed Sampler builds a stage-1 spanner H with stretch α;
//  2. H simulates the stage-2 construction: the t₂-ball of every node is
//     collected over H in α·t₂ rounds and the construction is replayed
//     locally, yielding each node's incident edges of the better spanner H′
//     — without sending a single message of the original Ω(m)-message
//     algorithm;
//  3. H′ carries the final collection for the target algorithm.
//
// src supplies the stage-1 spanner as for Scheme1.
func Scheme2With(ctx context.Context, g *graph.Graph, spec algorithms.Spec, p core.Params, st2 Stage2, seed uint64, cfg local.Config, hooks Hooks, src Stage1Source) (*SchemeResult, error) {
	// Stage 1: Sampler spanner.
	st1, samplerCost, err := stage1(ctx, g, p, seed, cfg, hooks, src, "scheme2 stage-1 spanner")
	if err != nil {
		return nil, err
	}

	// Stage 2: simulate the off-the-shelf construction over H1.
	coll2, err := Collect(ctx, g, st1.Host, st1.Stretch*st2.T, seed, hooks.RoundConfig(cfg, st2.Name))
	if err != nil {
		return nil, fmt.Errorf("scheme2 stage-2 collection: %w", err)
	}
	// Set union is order-independent, so the merged spanner is identical at
	// every replay concurrency level.
	nodeEdges, err := coll2.ReplayAllN(ctx, st2.spec(), replayWorkers(cfg))
	if err != nil {
		return nil, fmt.Errorf("scheme2 stage-2 replay: %w", err)
	}
	h2edges := make(map[graph.EdgeID]bool)
	for _, edges := range nodeEdges {
		for e := range edges.(map[graph.EdgeID]bool) {
			h2edges[e] = true
		}
	}
	stageCost := RunCost(st2.Name, coll2.Run)
	hooks.PhaseDone(stageCost)
	h2, err := g.SubgraphByEdges(h2edges)
	if err != nil {
		return nil, fmt.Errorf("scheme2: simulated %s emitted a non-subgraph: %w", st2.Name, err)
	}

	// Stage 3: final collection over H2.
	coll, err := Collect(ctx, g, h2, st2.Stretch*spec.T, seed, hooks.RoundConfig(cfg, "collect"))
	if err != nil {
		return nil, fmt.Errorf("scheme2 final collection: %w", err)
	}
	collectCost := RunCost("collect", coll.Run)
	hooks.PhaseDone(collectCost)
	return &SchemeResult{
		Coll:         coll,
		Phases:       []PhaseCost{samplerCost, stageCost, collectCost},
		StretchUsed:  st2.Stretch,
		SpannerEdges: h2.NumEdges(),
		FinalSpanner: h2edges,
	}, nil
}

// Scheme1Congest is Scheme1 under a CONGEST-style bandwidth budget:
// the Sampler spanner carries the same stretch·t-hop collection, but every
// directed spanner edge transmits at most bw words per round, so oversized
// ball payloads are split across extra rounds. The collection phase is
// labeled "collect(congest)" and reports its round dilation relative to the
// unbudgeted LOCAL schedule in PhaseCost.Dilation. Outputs replayed from the
// collection are bit-identical to direct execution — the bandwidth cap
// reshapes the schedule, never the knowledge.
func Scheme1Congest(ctx context.Context, g *graph.Graph, spec algorithms.Spec, p core.Params, bw int, seed uint64, cfg local.Config, hooks Hooks, src Stage1Source) (*SchemeResult, error) {
	st1, samplerCost, err := stage1(ctx, g, p, seed, cfg, hooks, src, "scheme1-congest spanner")
	if err != nil {
		return nil, err
	}
	budgetRounds := st1.Stretch * spec.T
	coll, err := CollectBudget(ctx, g, st1.Host, budgetRounds, bw, seed, hooks.RoundConfig(cfg, "collect(congest)"))
	if err != nil {
		return nil, fmt.Errorf("scheme1-congest collection: %w", err)
	}
	collectCost := PhaseCost{
		Name:     "collect(congest)",
		Rounds:   coll.Run.Rounds,
		Messages: coll.Run.Messages,
		Dilation: float64(coll.Run.Rounds) / float64(budgetRounds+1),
		// The CONGEST collection is centrally scheduled (no LOCAL engine
		// run), so it is adversary-exempt by construction: no drops or
		// duplicates to attribute.
	}
	hooks.PhaseDone(collectCost)
	return st1.carried(coll, samplerCost, collectCost), nil
}

// Hybrid composes the gossip baseline with the Sampler spanner pipeline:
// push–pull gossip runs until a target fraction of nodes holds its complete
// t-ball (phase "gossip(seed)", billed up to that round), and the spanner
// then floods only the residue — the rumors some node still misses — for
// stretch·t rounds (phase "collect(residue)"). The merged collection covers
// every t-ball, so replayed outputs are bit-identical to direct execution.
// The stage-1 spanner is built first so engine caches amortize it exactly as
// for the pure spanner schemes. gossipBudget bounds the seeding stage's
// schedule; failing to cover the fraction within it is an ErrRoundBudget.
func Hybrid(ctx context.Context, g *graph.Graph, spec algorithms.Spec, p core.Params, fraction float64, gossipBudget int, seed uint64, cfg local.Config, hooks Hooks, src Stage1Source) (*SchemeResult, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("hybrid fraction %v outside (0,1]", fraction)
	}
	st1, samplerCost, err := stage1(ctx, g, p, seed, cfg, hooks, src, "hybrid spanner")
	if err != nil {
		return nil, err
	}

	n := g.NumNodes()
	ports := portsOf(g)
	need := int(math.Ceil(fraction * float64(n)))

	// Find the seeding deadline — the earliest round by which the target
	// fraction of nodes holds its complete t-ball — without simulating the
	// schedule's dead tail (the default budget is 100·n rounds; the fraction
	// is typically covered in O(polylog n)). The early-stopped run's executed
	// prefix is bit-identical to the full schedule's, so the deadline,
	// arrivals, and per-round message bill match what the full schedule
	// would have produced. The ball index is built once and shared by the
	// per-arrival cover tracking and the residue scan below.
	bi := broadcast.NewBallIndex(g, spec.T)
	gcfg := cfg
	gcfg.Seed = seed
	gos, seedRound, err := broadcast.GossipUntilCovered(ctx, g, ports, bi, need, gossipBudget, hooks.RoundConfig(gcfg, "gossip(seed)"))
	if err != nil {
		return nil, fmt.Errorf("hybrid gossip stage: %w", err)
	}
	if seedRound < 0 {
		covered := 0
		for _, r := range bi.CoverRounds(gos.Arrival) {
			if r >= 0 {
				covered++
			}
		}
		return nil, fmt.Errorf("hybrid gossip stage covered %d of the %d required t-balls within %d rounds: %w",
			covered, need, gossipBudget, ErrRoundBudget)
	}
	seedMsgs, err := gos.MessagesThrough(seedRound)
	if err != nil {
		return nil, fmt.Errorf("hybrid seed billing: %w", err)
	}
	// The bill is truncated at the seeding deadline; drop/duplicate
	// attribution is not tracked per round, so it covers the whole run.
	seedCost := RunCost("gossip(seed)", gos.Run)
	seedCost.Rounds, seedCost.Messages = seedRound, seedMsgs
	hooks.PhaseDone(seedCost)

	// Residue senders: every origin some node's t-ball still misses at the
	// seeding deadline (central bookkeeping, like broadcast.CoverRound).
	residue := make([]bool, n)
	for v := 0; v < n; v++ {
		for u := range bi.Members(graph.NodeID(v)) {
			if r, ok := gos.Arrival[v][u]; !ok || r > seedRound {
				residue[u] = true
			}
		}
	}
	fcfg := cfg
	fcfg.Seed = seed
	fl, err := broadcast.FloodFrom(ctx, st1.Host, ports, residue, st1.Stretch*spec.T, hooks.RoundConfig(fcfg, "collect(residue)"))
	if err != nil {
		return nil, fmt.Errorf("hybrid residue collection: %w", err)
	}
	collectCost := RunCost("collect(residue)", fl.Run)
	hooks.PhaseDone(collectCost)

	// Merge: what gossip had delivered by the seeding deadline, plus the
	// residue flood.
	coll := &Collection{N: n, Seed: seed, Run: fl.Run}
	coll.Ports = make([]map[graph.NodeID][]graph.EdgeID, n)
	for v := 0; v < n; v++ {
		m := make(map[graph.NodeID][]graph.EdgeID, len(fl.Known[v]))
		for origin, r := range gos.Arrival[v] {
			if r <= seedRound {
				m[origin] = ports[origin].([]graph.EdgeID)
			}
		}
		for origin, payload := range fl.Known[v] {
			m[origin] = payload.([]graph.EdgeID)
		}
		coll.Ports[v] = m
	}
	return st1.carried(coll, samplerCost, seedCost, collectCost), nil
}

// GlobalCollect realizes the paper's Section 7 extension as a collection
// pipeline: the Sampler spanner elects a root and builds a BFS tree, every
// node's port list is convergecast up the tree and the merged table is
// flooded back down (phase "globalcast"), after which every node can replay
// any node's t-ball locally. Rounds are O(stretch · diameter); messages are
// O(n) tree messages carrying tables instead of Θ(t·m) flood traffic.
func GlobalCollect(ctx context.Context, g *graph.Graph, spec algorithms.Spec, p core.Params, seed uint64, cfg local.Config, hooks Hooks, src Stage1Source) (*SchemeResult, error) {
	st1, samplerCost, err := stage1(ctx, g, p, seed, cfg, hooks, src, "globalcompute spanner")
	if err != nil {
		return nil, err
	}

	n := g.NumNodes()
	ports := portsOf(g)
	inputs := make([]any, n)
	for v := 0; v < n; v++ {
		inputs[v] = map[graph.NodeID][]graph.EdgeID{graph.NodeID(v): ports[v].([]graph.EdgeID)}
	}
	merge := func(a, b any) any {
		ta := a.(map[graph.NodeID][]graph.EdgeID)
		for origin, pl := range b.(map[graph.NodeID][]graph.EdgeID) {
			ta[origin] = pl
		}
		return ta
	}
	// The wave deadline must upper-bound the host diameter; the host is a
	// fixed artifact of this run, so the exact diameter is deterministic.
	waveRounds := st1.Host.Diameter()
	ccfg := cfg
	ccfg.Seed = seed
	vals, runRes, err := globalcompute.Converge(ctx, st1.Host, inputs, merge, waveRounds, hooks.RoundConfig(ccfg, "globalcast"))
	if err != nil {
		return nil, fmt.Errorf("globalcompute convergecast: %w", err)
	}
	castCost := RunCost("globalcast", runRes)
	hooks.PhaseDone(castCost)

	// Every node holds the identical merged table (the root's map, shared
	// and read-only from here on), so the collection can alias it.
	coll := &Collection{N: n, Seed: seed, Run: runRes}
	coll.Ports = make([]map[graph.NodeID][]graph.EdgeID, n)
	for v := 0; v < n; v++ {
		table := vals[v].(map[graph.NodeID][]graph.EdgeID)
		if len(table) != n {
			// An incomplete table means the wave/convergecast starved within
			// its schedule (an adversarial network can do this): a budget
			// failure, typed so callers can test for it.
			return nil, fmt.Errorf("globalcompute: node %d's table covers %d of %d nodes: %w", v, len(table), n, ErrRoundBudget)
		}
		coll.Ports[v] = table
	}
	return st1.carried(coll, samplerCost, castCost), nil
}
