package simulate

// Tests of the replay sweep: byte-identical outputs at every concurrency
// level and equal to per-node replay on every generator family, replays
// shared exactly when balls coincide (pinned by protocol-instance counts),
// deterministic behaviour under cancellation (including mid-replay,
// exercised under -race in CI), and a fuzz target generalizing the
// corrupt-collection detection to arbitrary byte flips.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

// TestReplayAllNMatchesSequential is the acceptance check for the parallel
// replay path: the output vector must be byte-identical to the sequential
// path at every tested concurrency level.
func TestReplayAllNMatchesSequential(t *testing.T) {
	g := gen.ConnectedGNP(80, 0.07, xrand.New(21))
	ctx := context.Background()
	for _, spec := range []algorithms.Spec{
		algorithms.MaxID(2),
		algorithms.MIS(algorithms.MISRounds(g.NumNodes())),
	} {
		coll, err := Collect(ctx, g, g, spec.T, 9, local.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := coll.ReplayAllN(ctx, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, conc := range []int{0, 1, 2, 3, 8, -1} {
			got, err := coll.ReplayAllN(ctx, spec, conc)
			if err != nil {
				t.Fatalf("%s conc=%d: %v", spec.Name, conc, err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s conc=%d node %d: %v != sequential %v",
						spec.Name, conc, v, got[v], want[v])
				}
			}
		}
	}
}

// TestReplayAllNMatchesPerNodeReplay pins the sharing rule: on every
// generator family — the complete graph and barbell, where balls coincide,
// and the cycle, grid and torus, large-diameter families where none do —
// every slot of ReplayAllN equals Replay at that node, for MaxID, MIS,
// Coloring and the Baswana–Sen stage-2 construction (map outputs), at every
// concurrency level. Each collection is flooded for t rounds, so a view is
// its node's ball, and for t plus the diameter, so every view is the whole
// graph and nodes share views but not balls.
func TestReplayAllNMatchesPerNodeReplay(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"complete", gen.Complete(16)},
		{"barbell", gen.Barbell(6, 5)},
		{"cycle", gen.Cycle(30)},
		{"grid", gen.Grid(5, 6)},
		{"torus", gen.Torus(6, 6)},
		{"gnp", gen.ConnectedGNP(36, 0.1, xrand.New(23))},
	}
	for _, tc := range graphs {
		n := tc.g.NumNodes()
		specs := []algorithms.Spec{
			algorithms.MaxID(1), algorithms.MaxID(2), algorithms.MaxID(3),
			algorithms.MIS(4), algorithms.MIS(algorithms.MISRounds(n)),
			algorithms.Coloring(algorithms.ColoringRounds(n)),
			BaswanaSenStage2(2).spec(),
		}
		for _, spec := range specs {
			for _, rounds := range []int{spec.T, spec.T + tc.g.Diameter()} {
				checkReplayAllN(t, fmt.Sprintf("%s/%s(%d)/rounds=%d", tc.name, spec.Name, spec.T, rounds), tc.g, spec, rounds)
			}
		}
	}
}

// checkReplayAllN collects over g for the given rounds and checks every
// slot of ReplayAllN against Replay at every concurrency level.
func checkReplayAllN(t *testing.T, name string, g *graph.Graph, spec algorithms.Spec, rounds int) {
	t.Helper()
	ctx := context.Background()
	coll, err := Collect(ctx, g, g, rounds, 11, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]any, g.NumNodes())
	for v := range want {
		if want[v], err = coll.Replay(spec, graph.NodeID(v)); err != nil {
			t.Fatalf("%s: Replay(%d): %v", name, v, err)
		}
	}
	for _, conc := range []int{0, 1, 2, -1} {
		got, err := coll.ReplayAllN(ctx, spec, conc)
		if err != nil {
			t.Fatalf("%s conc=%d: %v", name, conc, err)
		}
		for v := range want {
			if !reflect.DeepEqual(got[v], want[v]) {
				t.Fatalf("%s conc=%d node %d: ReplayAllN %v, Replay %v", name, conc, v, got[v], want[v])
			}
		}
	}
}

// TestReplayAllNSharesReplays pins the sharing by a count, not a timing. On
// K_n every MaxID(2) ball is the whole graph, so the sweep must build
// exactly n protocol instances (one replay), not n². On a torus no two
// balls coincide, so it must build exactly as many as per-node replay does,
// even though the collection, flooded for the diameter, gives every node
// the same view.
func TestReplayAllNSharesReplays(t *testing.T) {
	ctx := context.Background()
	torus := gen.Torus(8, 8)
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		rounds int
		shared bool
	}{
		{"complete", gen.Complete(40), 2, true},
		{"torus", torus, torus.Diameter(), false},
	} {
		var calls atomic.Int64
		base := algorithms.MaxID(2)
		spec := base
		spec.New = func(v graph.NodeID) local.Protocol {
			calls.Add(1)
			return base.New(v)
		}
		coll, err := Collect(ctx, tc.g, tc.g, tc.rounds, 3, local.Config{})
		if err != nil {
			t.Fatal(err)
		}
		n := int64(tc.g.NumNodes())
		want := n
		if !tc.shared {
			for v := 0; v < tc.g.NumNodes(); v++ {
				if _, err := coll.Replay(spec, graph.NodeID(v)); err != nil {
					t.Fatal(err)
				}
			}
			want = calls.Load()
			if want <= n {
				t.Fatalf("%s: per-node replay built %d instances, want more than %d", tc.name, want, n)
			}
		}
		for _, conc := range []int{0, 1, 2, -1} {
			calls.Store(0)
			if _, err := coll.ReplayAllN(ctx, spec, conc); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != want {
				t.Fatalf("%s conc=%d: ReplayAllN built %d protocol instances, want %d", tc.name, conc, got, want)
			}
		}
	}
}

// TestReplayAllNCancellationMidReplay cancels the context from inside a
// replay (after a fixed number of protocol instantiations) and checks every
// concurrency level unwinds promptly with the context error.
func TestReplayAllNCancellationMidReplay(t *testing.T) {
	g := gen.ConnectedGNP(120, 0.05, xrand.New(22))
	base := algorithms.MaxID(2)
	coll, err := Collect(context.Background(), g, g, base.T, 9, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{0, 4, -1} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		spec := base
		spec.New = func(v graph.NodeID) local.Protocol {
			if started.Add(1) == 5 {
				cancel()
			}
			return base.New(v)
		}
		_, err := coll.ReplayAllN(ctx, spec, conc)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("conc=%d: got %v, want context.Canceled", conc, err)
		}
		if started.Load() == 0 {
			t.Fatalf("conc=%d: cancelled before any replay started", conc)
		}
		cancel()
	}
}

// TestReplayAllNPreCancelled checks that an already-cancelled context stops
// the sweep before any replay runs.
func TestReplayAllNPreCancelled(t *testing.T) {
	g := gen.Path(6)
	base := algorithms.MaxID(1)
	coll, err := Collect(context.Background(), g, g, base.T, 1, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int64
	spec := base
	spec.New = func(v graph.NodeID) local.Protocol {
		started.Add(1)
		return base.New(v)
	}
	for _, conc := range []int{0, -1} {
		if _, err := coll.ReplayAllN(ctx, spec, conc); !errors.Is(err, context.Canceled) {
			t.Fatalf("conc=%d: got %v, want context.Canceled", conc, err)
		}
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d replays ran under a pre-cancelled context", n)
	}
}

// cloneCollection deep-copies the mutable parts of a collection so fuzz
// mutations cannot leak across fuzz iterations.
func cloneCollection(c *Collection) *Collection {
	out := &Collection{N: c.N, Seed: c.Seed, Run: c.Run}
	out.Ports = make([]map[graph.NodeID][]graph.EdgeID, len(c.Ports))
	for v, m := range c.Ports {
		cm := make(map[graph.NodeID][]graph.EdgeID, len(m))
		for origin, ports := range m {
			cm[origin] = append([]graph.EdgeID(nil), ports...)
		}
		out.Ports[v] = cm
	}
	return out
}

// FuzzReplayDetectsCorruption generalizes TestReplayDetectsCorruptCollection
// to arbitrary corruption of the collected balls: byte flips in collected
// edge IDs, injected and dropped ports, and forged origins. The invariant is
// that Replay never panics or hangs on a corrupt collection — it either
// detects the corruption and errors, or degrades to a (possibly wrong)
// output; both are acceptable, a crash is not. ReplayAllN must agree with
// per-node Replay on the corrupt collection, so the mutations run on two
// collections: one flooded for t rounds, where each view is its node's
// ball, and one flooded for the diameter, where every clean view is the
// whole graph and a corrupt view has clean twins it must not borrow from.
func FuzzReplayDetectsCorruption(f *testing.F) {
	g := gen.ConnectedGNP(24, 0.15, xrand.New(31))
	spec := algorithms.MaxID(2)
	var bases []*Collection
	for _, rounds := range []int{spec.T, g.Diameter()} {
		base, err := Collect(context.Background(), g, g, rounds, 1, local.Config{})
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, base)
	}
	// Seed corpus: one op per mutation kind, plus a multi-op mix.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{3, 0, 7, 1})
	f.Add([]byte{5, 1, 2, 200})
	f.Add([]byte{1, 2, 3, 4, 9, 1, 0, 255, 17, 3, 5, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, base := range bases {
			checkCorruptReplay(t, base, spec, data)
		}
	})
}

// checkCorruptReplay applies the mutations data encodes to a copy of base
// and checks Replay and ReplayAllN on the result.
func checkCorruptReplay(t *testing.T, base *Collection, spec algorithms.Spec, data []byte) {
	c := cloneCollection(base)
	mutated := false
	for len(data) >= 4 {
		v := int(data[0]) % len(c.Ports)
		op, a, b := data[1], data[2], data[3]
		data = data[4:]
		m := c.Ports[v]
		origins := viewOrigins(m)
		if len(origins) == 0 {
			continue
		}
		origin := origins[int(a)%len(origins)]
		ports := m[origin]
		switch op % 4 {
		case 0: // flip one byte of a collected edge ID
			if mask := graph.EdgeID(uint64(a) << (8 * (b % 8))); mask != 0 && len(ports) > 0 {
				i := int(b) % len(ports)
				ports[i] ^= mask
				mutated = true
			}
		case 1: // inject a foreign (possibly duplicate) port
			m[origin] = append(ports, graph.EdgeID(int64(a)<<8|int64(b)))
			mutated = true
		case 2: // drop a port
			if len(ports) > 0 {
				i := int(b) % len(ports)
				m[origin] = append(ports[:i:i], ports[i+1:]...)
				mutated = true
			}
		case 3: // forge an origin with a stolen port list
			if target := graph.NodeID(int(a) % c.N); target != origin {
				m[target] = append([]graph.EdgeID(nil), ports...)
				mutated = true
			}
		}
	}
	// Replay every node. Detected corruption surfaces as an error;
	// undetected corruption may change the output; neither may panic or
	// hang.
	want := make([]any, c.N)
	var failed error
	for v := range want {
		out, err := c.Replay(spec, graph.NodeID(v))
		if err != nil && failed == nil {
			failed = err
		}
		want[v] = out
	}
	// The sweep must fail exactly when some node's replay fails, and
	// otherwise match it slot by slot: a corrupt view never borrows a clean
	// twin's run.
	for _, conc := range []int{0, -1} {
		got, err := c.ReplayAllN(context.Background(), spec, conc)
		if (err != nil) != (failed != nil) {
			t.Fatalf("conc=%d: ReplayAllN error %v, per-node replay error %v", conc, err, failed)
		}
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("conc=%d node %d: ReplayAllN %v, Replay %v", conc, v, got[v], want[v])
			}
		}
	}
	for _, v := range []graph.NodeID{0, graph.NodeID(c.N / 2), graph.NodeID(c.N - 1)} {
		out, err := c.Replay(spec, v)
		if !mutated {
			// Uncorrupted clone: replay must still succeed and agree
			// with the pristine collection.
			if err != nil {
				t.Fatalf("clean clone replay at %d failed: %v", v, err)
			}
			want, werr := base.Replay(spec, v)
			if werr != nil {
				t.Fatal(werr)
			}
			if out != want {
				t.Fatalf("clean clone replay at %d drifted: %v != %v", v, out, want)
			}
		}
	}
}
