package featsel

import (
	"testing"

	"hpcap/internal/ml/bayes"
	"hpcap/internal/ml/mltest"
)

// BenchmarkFeatselSelect measures the paper's full wrapper loop — ranking
// by information gain, then 10-fold cross validation per candidate — with
// the TAN learner on a HPC-vector-sized dataset. This is the training cost
// an online deployment pays per (workload, tier) model refresh.
func BenchmarkFeatselSelect(b *testing.B) {
	d := mltest.NoisyGaussians(300, 19, 6, 0.8, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Select(bayes.TANLearner(), d, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatselRank isolates the information-gain ranking pass.
func BenchmarkFeatselRank(b *testing.B) {
	d := mltest.NoisyGaussians(300, 19, 6, 0.8, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RankByInformationGain(d); err != nil {
			b.Fatal(err)
		}
	}
}
