package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestDeriveStable(t *testing.T) {
	root := New(7)
	s1 := root.Derive(13)
	// Advancing the root must not change future derivations.
	root.Uint64()
	root.Uint64()
	s2 := New(7).Derive(13)
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatalf("Derive is not a pure function of (seed, stream) at step %d", i)
		}
	}
}

func TestDeriveIndependent(t *testing.T) {
	root := New(7)
	seen := make(map[uint64]bool)
	for stream := uint64(0); stream < 512; stream++ {
		v := root.Derive(stream).Uint64()
		if seen[v] {
			t.Fatalf("streams collide on first output (stream=%d)", stream)
		}
		seen[v] = true
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(10)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(21)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestInt63nRange(t *testing.T) {
	r := New(2)
	for _, n := range []int64{1, 2, 1000, math.MaxInt32 + 5, math.MaxInt64} {
		for i := 0; i < 100; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	// Must not panic and must be deterministic.
	a := r.Uint64()
	var r2 RNG
	if a != r2.Uint64() {
		t.Fatal("zero-value RNG not deterministic")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000003)
	}
}

func TestExpMeanAndPositivity(t *testing.T) {
	r := New(31)
	const rate, trials = 2.0, 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp(%v) mean = %v, want %v", rate, mean, 1/rate)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

// TestKnownAnswers pins fixed-seed output vectors. Every seeded result in
// the repository (goldens, spanner caches, benchmark bills) is a function of
// these streams, so a change to the generator or to Intn's multiply-shift
// reduction must reproduce them exactly.
func TestKnownAnswers(t *testing.T) {
	const seed = 0x5eed
	r := New(seed)
	for i, want := range []uint64{
		0x9f1fd9d03f0a9b4, 0x553274161bbf8475, 0x5d5bca4696b343b3,
		0x70d29b6c7d22528d, 0xbf2b716f9915475, 0x5eb7f92b95387cca,
	} {
		if got := r.Uint64(); got != want {
			t.Fatalf("Uint64 #%d = %#x, want %#x", i, got, want)
		}
	}
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{1, []int{0, 0, 0, 0, 0, 0, 0, 0}},
		{3, []int{0, 0, 1, 1, 0, 1, 0, 0}},
		{4, []int{0, 1, 1, 1, 0, 1, 0, 0}},
		{7, []int{0, 2, 2, 3, 0, 2, 1, 0}},
		{1 << 20, []int{40735, 348967, 382396, 462121, 48939, 387967, 169677, 75930}},
		{1<<62 + 1, []int{
			1534774220090761501, 2032432791903835299, 215237947021350173, 1706299431471423282,
			333945484088461676, 3938573719604225949, 1131568260577219017, 1596944289722888598,
		}},
	} {
		r := New(seed)
		for i, want := range tc.want {
			if got := r.Intn(tc.n); got != want {
				t.Fatalf("Intn(%d) #%d = %d, want %d", tc.n, i, got, want)
			}
		}
	}
	r = New(seed)
	for i, want := range []float64{0.038848734697185194, 0.3328011087394298, 0.3646818563781382, 0.44071360968258344} {
		if got := r.Float64(); got != want {
			t.Fatalf("Float64 #%d = %v, want %v", i, got, want)
		}
	}
	r = New(seed)
	for i, want := range []bool{
		true, false, false, false, true, false, true, true,
		false, true, false, false, true, true, false, false,
	} {
		if got := r.Bernoulli(0.3); got != want {
			t.Fatalf("Bernoulli(0.3) #%d = %v, want %v", i, got, want)
		}
	}
}
