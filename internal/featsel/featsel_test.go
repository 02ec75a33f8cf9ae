package featsel

import (
	"testing"

	"hpcap/internal/ml"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/ml/mltest"
)

func TestRankByInformationGain(t *testing.T) {
	// Attributes 0 and 1 are informative; the rest are noise.
	d := mltest.NoisyGaussians(300, 8, 2, 3, 1)
	ranked, err := RankByInformationGain(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 8 {
		t.Fatalf("ranked %d attributes, want 8", len(ranked))
	}
	top2 := map[int]bool{ranked[0].Attr: true, ranked[1].Attr: true}
	if !top2[0] || !top2[1] {
		t.Errorf("informative attributes not ranked first: top2 = %v, gains %v, %v",
			top2, ranked[0], ranked[1])
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Gain > ranked[i-1].Gain {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
	// Informative gains must dominate noise gains.
	if ranked[1].Gain < 3*ranked[3].Gain {
		t.Errorf("informative gain %v not well above noise gain %v",
			ranked[1].Gain, ranked[3].Gain)
	}
}

func TestRankEmptyDataset(t *testing.T) {
	if _, err := RankByInformationGain(ml.NewDataset([]string{"a"})); err != ml.ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestSelectPrefersInformativeAttrs(t *testing.T) {
	d := mltest.NoisyGaussians(300, 10, 2, 3, 2)
	res, err := Select(bayes.NaiveLearner(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) == 0 {
		t.Fatal("no attributes selected")
	}
	found := map[int]bool{}
	for _, a := range res.Attrs {
		found[a] = true
	}
	if !found[0] && !found[1] {
		t.Errorf("selection %v missed both informative attributes", res.Attrs)
	}
	if res.CV < 0.85 {
		t.Errorf("final CV = %v, want ≥0.85", res.CV)
	}
	if len(res.Attrs) > maxAttrs {
		t.Errorf("selected %d attributes, exceeds the cap of %d", len(res.Attrs), maxAttrs)
	}
}

func TestSelectRespectsMaxAttrs(t *testing.T) {
	// Sixteen weak informative attributes: each one still buys accuracy,
	// so only the cap stops the selection.
	d := mltest.NoisyGaussians(400, 20, 16, 0.8, 3)
	res, err := Select(bayes.NaiveLearner(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) != maxAttrs {
		t.Errorf("selected %d attributes, want the cap of %d", len(res.Attrs), maxAttrs)
	}
}

func TestSelectFallsBackOnUselessData(t *testing.T) {
	// Pure noise: nothing improves CV, but selection must still return
	// one attribute so a synopsis has an input.
	d := mltest.NoisyGaussians(100, 5, 0, 0, 4)
	res, err := Select(bayes.NaiveLearner(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	// CV noise may admit an attribute or two, but the synopsis must never
	// be empty and must never balloon on pure noise.
	if len(res.Attrs) == 0 {
		t.Error("noise data selected no attributes; want the fallback")
	}
	if len(res.Attrs) > 3 {
		t.Errorf("noise data selected %d attributes, want few", len(res.Attrs))
	}
}

func TestSelectTooFewInstances(t *testing.T) {
	d := mltest.LinearlySeparable(5, 0.3, 1)
	if _, err := Select(bayes.NaiveLearner(), d, 1); err == nil {
		t.Error("too-few-instances not rejected")
	}
}

func TestSelectDeterministic(t *testing.T) {
	d := mltest.NoisyGaussians(200, 8, 2, 2.5, 5)
	a, err := Select(bayes.TANLearner(), d, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(bayes.TANLearner(), d, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Attrs) != len(b.Attrs) || a.CV != b.CV {
		t.Fatalf("selection not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			t.Fatalf("selection order differs: %v vs %v", a.Attrs, b.Attrs)
		}
	}
}
