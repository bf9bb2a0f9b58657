package gen

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func validate(t *testing.T, g *graph.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	validate(t, g)
	if g.NumEdges() != 15 {
		t.Fatalf("K6 has %d edges", g.NumEdges())
	}
	for v := 0; v < 6; v++ {
		if g.Degree(graph.NodeID(v)) != 5 {
			t.Fatalf("degree of %d is %d", v, g.Degree(graph.NodeID(v)))
		}
	}
	if g.Diameter() != 1 {
		t.Fatal("K6 diameter != 1")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(10)
	validate(t, g)
	if g.NumEdges() != 10 || g.Diameter() != 5 {
		t.Fatalf("C10: edges=%d diam=%d", g.NumEdges(), g.Diameter())
	}
}

func TestPathAndStar(t *testing.T) {
	p := Path(7)
	validate(t, p)
	if p.NumEdges() != 6 || p.Diameter() != 6 {
		t.Fatal("path wrong")
	}
	s := Star(7)
	validate(t, s)
	if s.NumEdges() != 6 || s.Diameter() != 2 || s.Degree(0) != 6 {
		t.Fatal("star wrong")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 5)
	validate(t, g)
	if g.NumNodes() != 20 {
		t.Fatal("grid node count")
	}
	if g.NumEdges() != 4*4+3*5 {
		t.Fatalf("grid edges = %d", g.NumEdges())
	}
	if g.Diameter() != 3+4 {
		t.Fatalf("grid diameter = %d", g.Diameter())
	}
}

func TestTorus(t *testing.T) {
	g := Torus(4, 4)
	validate(t, g)
	if g.NumEdges() != 2*16 {
		t.Fatalf("torus edges = %d", g.NumEdges())
	}
	if !g.IsSimple() {
		t.Fatal("torus should be simple")
	}
	for v := 0; v < 16; v++ {
		if g.Degree(graph.NodeID(v)) != 4 {
			t.Fatal("torus not 4-regular")
		}
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(5)
	validate(t, g)
	if g.NumNodes() != 32 || g.NumEdges() != 5*16 {
		t.Fatal("hypercube size wrong")
	}
	if g.Diameter() != 5 {
		t.Fatalf("Q5 diameter = %d", g.Diameter())
	}
}

func TestGNPEdgeCases(t *testing.T) {
	rng := xrand.New(1)
	if GNP(50, 0, rng).NumEdges() != 0 {
		t.Fatal("GNP(p=0) has edges")
	}
	g := GNP(20, 1, rng)
	if g.NumEdges() != 190 {
		t.Fatal("GNP(p=1) is not complete")
	}
}

func TestGNPDensity(t *testing.T) {
	rng := xrand.New(7)
	const n, p = 400, 0.05
	g := GNP(n, p, rng)
	validate(t, g)
	if !g.IsSimple() {
		t.Fatal("GNP produced parallel edges")
	}
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.NumEdges())
	if got < 0.8*want || got > 1.2*want {
		t.Fatalf("GNP edges = %v, want about %v", got, want)
	}
}

func TestGNM(t *testing.T) {
	rng := xrand.New(3)
	g := GNM(50, 200, rng)
	validate(t, g)
	if g.NumEdges() != 200 || !g.IsSimple() {
		t.Fatal("GNM wrong")
	}
}

func TestGNMPanicsWhenOverfull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GNM over capacity did not panic")
		}
	}()
	GNM(4, 10, xrand.New(1))
}

func TestRandomTree(t *testing.T) {
	g := randomTree(64, xrand.New(5))
	validate(t, g)
	if g.NumEdges() != 63 || !g.Connected() {
		t.Fatal("random tree is not a tree")
	}
}

func TestRandomRegular(t *testing.T) {
	g, err := randomRegular(40, 4, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g)
	if !g.IsSimple() {
		t.Fatal("pairing left parallel edges")
	}
	for v := 0; v < 40; v++ {
		if g.Degree(graph.NodeID(v)) != 4 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(graph.NodeID(v)))
		}
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(10, 5)
	validate(t, g)
	if g.NumNodes() != 25 {
		t.Fatal("barbell node count")
	}
	if !g.Connected() {
		t.Fatal("barbell disconnected")
	}
	wantEdges := 2*45 + 6
	if g.NumEdges() != wantEdges {
		t.Fatalf("barbell edges = %d, want %d", g.NumEdges(), wantEdges)
	}
}

func TestCommunity(t *testing.T) {
	rng := xrand.New(11)
	g := Community(4, 25, 0.5, 0.01, rng)
	validate(t, g)
	// Intra-block edges should dominate.
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		if int(e.U)/25 == int(e.V)/25 {
			intra++
		} else {
			inter++
		}
	}
	if intra < 4*100 || inter > intra {
		t.Fatalf("community structure missing: intra=%d inter=%d", intra, inter)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(200, 3, xrand.New(13))
	validate(t, g)
	if !g.Connected() {
		t.Fatal("PA graph disconnected")
	}
	if g.NumEdges() != 3+(200-4)*3 {
		t.Fatalf("PA edges = %d", g.NumEdges())
	}
	// The hub should be much hotter than the median node.
	if g.Degree(0) < 10 {
		t.Fatalf("PA hub degree = %d, expected a hub", g.Degree(0))
	}
}

func TestConnectedGNP(t *testing.T) {
	// p low enough that plain GNP is disconnected whp.
	g := ConnectedGNP(300, 0.003, xrand.New(17))
	validate(t, g)
	if !g.Connected() {
		t.Fatal("ConnectedGNP is disconnected")
	}
}

func TestConnectifyNoop(t *testing.T) {
	g := Cycle(10)
	before := g.NumEdges()
	Connectify(g, xrand.New(1))
	if g.NumEdges() != before {
		t.Fatal("Connectify added edges to a connected graph")
	}
}

func TestMulti(t *testing.T) {
	base := Cycle(6)
	m := Multi(base, func(e graph.Edge) int { return int(e.U%3) + 1 })
	validate(t, m)
	if m.SimpleEdgeCount() != 6 {
		t.Fatal("Multi changed the simple structure")
	}
	if m.NumEdges() <= 6 {
		t.Fatal("Multi added no multiplicity")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := ConnectedGNP(100, 0.05, xrand.New(42))
	b := ConnectedGNP(100, 0.05, xrand.New(42))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("generator not deterministic")
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}
