package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(7)
	b := NewSource(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewSource(7)
	fork := a.Fork()
	// The fork must be deterministic given the parent seed.
	b := NewSource(7)
	forkB := b.Fork()
	for i := 0; i < 50; i++ {
		if fork.Float64() != forkB.Float64() {
			t.Fatal("forks of identical parents diverged")
		}
	}
}

func TestExpMean(t *testing.T) {
	s := NewSource(42)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(3)
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("Exp(3) sample mean = %v, want ≈3", mean)
	}
	if s.Exp(0) != 0 || s.Exp(-1) != 0 {
		t.Error("Exp with non-positive mean should return 0")
	}
}

func TestLogNormalMoments(t *testing.T) {
	s := NewSource(42)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.LogNormal(10, 0.5)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	cv := math.Sqrt(variance) / mean
	if math.Abs(mean-10) > 0.3 {
		t.Errorf("LogNormal mean = %v, want ≈10", mean)
	}
	if math.Abs(cv-0.5) > 0.05 {
		t.Errorf("LogNormal cv = %v, want ≈0.5", cv)
	}
}

func TestLogNormalDegenerate(t *testing.T) {
	s := NewSource(1)
	if got := s.LogNormal(0, 0.5); got != 0 {
		t.Errorf("LogNormal(0, _) = %v, want 0", got)
	}
	if got := s.LogNormal(5, 0); got != 5 {
		t.Errorf("LogNormal(5, 0) = %v, want 5", got)
	}
}

func TestPickDistribution(t *testing.T) {
	s := NewSource(3)
	weights := []float64{1, 3, 0, 6}
	counts := make([]int, len(weights))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Pick(weights)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[2])
	}
	// Expected proportions 0.1, 0.3, 0, 0.6.
	if math.Abs(float64(counts[0])/n-0.1) > 0.01 {
		t.Errorf("index 0 frequency %v, want ≈0.1", float64(counts[0])/n)
	}
	if math.Abs(float64(counts[3])/n-0.6) > 0.01 {
		t.Errorf("index 3 frequency %v, want ≈0.6", float64(counts[3])/n)
	}
}

func TestPickDegenerate(t *testing.T) {
	s := NewSource(3)
	if got := s.Pick(nil); got != 0 {
		t.Errorf("Pick(nil) = %d, want 0", got)
	}
	if got := s.Pick([]float64{0, 0}); got != 0 {
		t.Errorf("Pick(zeros) = %d, want 0", got)
	}
	// Negative weights are ignored.
	if got := s.Pick([]float64{-5, 1}); got != 1 {
		t.Errorf("Pick with negative weight = %d, want 1", got)
	}
}

// Property: Pick always returns a valid index with positive weight (when one
// exists).
func TestPickValidIndexProperty(t *testing.T) {
	f := func(seed int64, raw []float64) bool {
		s := NewSource(seed)
		if len(raw) == 0 {
			return s.Pick(raw) == 0
		}
		idx := s.Pick(raw)
		if idx < 0 || idx >= len(raw) {
			return false
		}
		anyPositive := false
		for _, w := range raw {
			if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
				anyPositive = true
			}
		}
		if !anyPositive {
			return idx == 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// draws takes one value of every kind the simulator uses from r, as bits.
func draws(r *rand.Rand, i int) [6]uint64 {
	return [6]uint64{
		uint64(r.Int63()),
		r.Uint64(),
		math.Float64bits(r.Float64()),
		math.Float64bits(r.ExpFloat64()),
		math.Float64bits(r.NormFloat64()),
		uint64(r.Intn(1 + i%1000)),
	}
}

// checkSourceMatchesMathRand takes n rounds of draws from NewSource(seed)
// and from math/rand seeded alike, reseeds both with reseed, and takes n
// rounds more.
func checkSourceMatchesMathRand(t *testing.T, seed, reseed int64, n int) {
	t.Helper()
	got, want := &NewSource(seed).rng, rand.New(rand.NewSource(seed))
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			if g, w := draws(got, i), draws(want, i); g != w {
				t.Fatalf("seed %d, pass %d, round %d: got %x, math/rand %x", seed, pass, i, g, w)
			}
		}
		got.Seed(reseed)
		want.Seed(reseed)
	}
}

// TestSourceMatchesMathRand holds the lazily seeded source to math/rand's
// over seeds at the edges of its normalisation and past the 607-draw
// horizon twice, including a Seed on a source already drawn from.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, math.MaxInt32, math.MaxInt32 + 1, -math.MaxInt32,
		math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(20081017))
	for i := 0; i < 8; i++ {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}
	for i, seed := range seeds {
		checkSourceMatchesMathRand(t, seed, seeds[(i+1)%len(seeds)], 1300)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, s := range []int64{0, 1, -1, math.MaxInt32, math.MinInt64, math.MaxInt64} {
		f.Add(s, -s)
	}
	f.Fuzz(func(t *testing.T, seed, reseed int64) {
		checkSourceMatchesMathRand(t, seed, reseed, 1300)
	})
}

// TestEmbeddedSourceMatchesNewSource: a Source held by value in another
// struct and seeded in place draws what NewSource draws, also when it is
// reseeded after drawing past the 607-draw horizon.
func TestEmbeddedSourceMatchesNewSource(t *testing.T) {
	var holder struct {
		id  int
		src Source
	}
	for _, seed := range []int64{0, 1, -7, 89482311, math.MaxInt64} {
		holder.src.seed(seed)
		want := NewSource(seed)
		for i := 0; i < 1300; i++ {
			if g, w := draws(&holder.src.rng, i), draws(&want.rng, i); g != w {
				t.Fatalf("seed %d round %d: embedded %x, NewSource %x", seed, i, g, w)
			}
		}
	}
}

// TestForkIntoMatchesFork: ForkInto seeds dst with what Fork would have
// returned, into a dst that has drawn before, and leaves the parent where
// Fork leaves it.
func TestForkIntoMatchesFork(t *testing.T) {
	for _, seed := range []int64{0, 3, -11, math.MinInt64} {
		forked, into := NewSource(seed), NewSource(seed)
		var dst Source
		dst.seed(seed + 1)
		for k := 0; k < 3; k++ {
			want := forked.Fork()
			into.ForkInto(&dst)
			for i := 0; i < 700; i++ {
				if g, w := draws(&dst.rng, i), draws(&want.rng, i); g != w {
					t.Fatalf("seed %d fork %d round %d: ForkInto %x, Fork %x", seed, k, i, g, w)
				}
			}
			if g, w := draws(&into.rng, k), draws(&forked.rng, k); g != w {
				t.Fatalf("seed %d fork %d: parents diverged: %x vs %x", seed, k, g, w)
			}
		}
	}
}

var sinkSource *Source

// TestSourceAllocs: a fresh generator is one allocation, and forking into
// an embedded one is none.
func TestSourceAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sinkSource = NewSource(7) }); n != 1 {
		t.Errorf("NewSource = %v allocs, want 1", n)
	}
	parent := NewSource(7)
	if n := testing.AllocsPerRun(100, func() { sinkSource = parent.Fork() }); n != 1 {
		t.Errorf("Fork = %v allocs, want 1", n)
	}
	var dst Source
	if n := testing.AllocsPerRun(100, func() { parent.ForkInto(&dst) }); n != 0 {
		t.Errorf("ForkInto = %v allocs, want 0", n)
	}
}
