package bayes

import (
	"testing"
	"testing/quick"

	"hpcap/internal/ml"
	"hpcap/internal/ml/mltest"
)

func TestNaiveLearnsGaussians(t *testing.T) {
	d := mltest.NoisyGaussians(300, 4, 2, 3, 1)
	ba, err := mltest.TrainAccuracy(NewNaive(), d)
	if err != nil {
		t.Fatal(err)
	}
	if ba < 0.95 {
		t.Errorf("Naive BA on well-separated Gaussians = %v, want ≥0.95", ba)
	}
}

func TestNaiveFailsOnXOR(t *testing.T) {
	// Marginals of XOR are identical per class, so independence-assuming
	// Naive Bayes cannot do better than chance.
	d := mltest.XOR(400, 0.08, 2)
	ba, err := mltest.TrainAccuracy(NewNaive(), d)
	if err != nil {
		t.Fatal(err)
	}
	if ba > 0.65 {
		t.Errorf("Naive on XOR achieved %v, should stay near 0.5", ba)
	}
}

func TestTANLearnsXOR(t *testing.T) {
	// TAN's single-parent dependence captures the pairwise interaction
	// that defeats Naive Bayes — the paper's rationale for preferring it.
	// With binary discretization the XOR table is learned exactly.
	d := mltest.XOR(400, 0.08, 2)
	ba, err := mltest.TrainAccuracy(&TAN{Bins: 2}, d)
	if err != nil {
		t.Fatal(err)
	}
	if ba < 0.97 {
		t.Errorf("2-bin TAN on XOR = %v, want ≥0.97", ba)
	}
	// Even default binning must stay far above the ≈0.5 ceiling of the
	// independence-assuming learners.
	baDefault, err := mltest.TrainAccuracy(NewTAN(), d)
	if err != nil {
		t.Fatal(err)
	}
	if baDefault < 0.8 {
		t.Errorf("default-bin TAN on XOR = %v, want ≥0.8", baDefault)
	}
}

func TestTANLearnsGaussians(t *testing.T) {
	d := mltest.NoisyGaussians(300, 4, 2, 3, 5)
	ba, err := mltest.TrainAccuracy(NewTAN(), d)
	if err != nil {
		t.Fatal(err)
	}
	if ba < 0.9 {
		t.Errorf("TAN BA = %v, want ≥0.9", ba)
	}
}

func TestErrorsOnDegenerateSets(t *testing.T) {
	for _, c := range []ml.Classifier{NewNaive(), NewTAN()} {
		if err := c.Fit(ml.NewDataset([]string{"a"})); err != ml.ErrNoData {
			t.Errorf("%T empty fit err = %v, want ErrNoData", c, err)
		}
	}
	for _, c := range []ml.Classifier{NewNaive(), NewTAN()} {
		if err := c.Fit(mltest.OneClass(10, 0)); err != ml.ErrOneClass {
			t.Errorf("%T one-class fit err = %v, want ErrOneClass", c, err)
		}
	}
}

func TestPredictBeforeFit(t *testing.T) {
	if NewNaive().Predict([]float64{1}, &ml.Scratch{}) != 0 {
		t.Error("unfitted Naive should predict 0")
	}
	if NewTAN().Predict([]float64{1}, &ml.Scratch{}) != 0 {
		t.Error("unfitted TAN should predict 0")
	}
}

func TestTANParentsFormTree(t *testing.T) {
	d := mltest.NoisyGaussians(200, 8, 3, 2, 9)
	c := NewTAN()
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	parents := c.Parents()
	if len(parents) != 8 {
		t.Fatalf("parents length = %d, want 8", len(parents))
	}
	roots := 0
	for j, p := range parents {
		if p == -1 {
			roots++
			continue
		}
		if p < 0 || p >= 8 || p == j {
			t.Fatalf("invalid parent %d for attribute %d", p, j)
		}
	}
	if roots != 1 {
		t.Fatalf("tree has %d roots, want 1", roots)
	}
	// Following parent links from any node must reach the root without
	// cycles.
	for j := range parents {
		seen := map[int]bool{}
		cur := j
		for parents[cur] != -1 {
			if seen[cur] {
				t.Fatalf("cycle through attribute %d", j)
			}
			seen[cur] = true
			cur = parents[cur]
		}
	}
}

// Property: maxSpanningTree yields a connected acyclic parent structure for
// arbitrary symmetric weights.
func TestMaxSpanningTreeProperty(t *testing.T) {
	f := func(seedWeights [36]float64) bool {
		const p = 9 // 9 nodes, 36 undirected pairs
		w := make(map[[2]int]float64)
		idx := 0
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				w[[2]int{i, j}] = seedWeights[idx]
				idx++
			}
		}
		weight := func(i, j int) float64 {
			if i > j {
				i, j = j, i
			}
			return w[[2]int{i, j}]
		}
		parent := maxSpanningTree(p, weight)
		// Every non-root node reaches node 0 acyclically.
		for j := 1; j < p; j++ {
			seen := map[int]bool{}
			cur := j
			for cur != 0 {
				if seen[cur] || parent[cur] == cur {
					return false
				}
				seen[cur] = true
				cur = parent[cur]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTANCustomBins(t *testing.T) {
	d := mltest.NoisyGaussians(200, 4, 2, 3, 13)
	c := &TAN{Bins: 3}
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	if ba := mltest.Evaluate(c, d).BalancedAccuracy(); ba < 0.85 {
		t.Errorf("3-bin TAN BA = %v, want ≥0.85", ba)
	}
}

func TestNaiveCrossValidation(t *testing.T) {
	d := mltest.NoisyGaussians(200, 10, 2, 2.5, 17)
	ba, err := mltest.CrossValidate(NaiveLearner(), d, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ba < 0.8 {
		t.Errorf("Naive CV BA = %v, want ≥0.8", ba)
	}
}

func TestTANDeterministic(t *testing.T) {
	d := mltest.NoisyGaussians(150, 6, 2, 2, 21)
	a, b := NewTAN(), NewTAN()
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	var sa, sb ml.Scratch
	for i := 0; i < d.Len(); i++ {
		row := d.Row(i)
		if a.Predict(row, &sa) != b.Predict(row, &sb) {
			t.Fatalf("TAN predictions diverge at row %d", i)
		}
	}
}
