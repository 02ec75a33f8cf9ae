// Package mltest provides shared synthetic dataset generators for testing
// the classifiers.
package mltest

import (
	"math/rand"

	"hpcap/internal/ml"
)

// LinearlySeparable returns n instances over two attributes where class 1
// lies above the line x0 + x1 = 1 with the given margin.
func LinearlySeparable(n int, margin float64, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := ml.NewDataset([]string{"a", "b"})
	for i := 0; i < n; i++ {
		label := i % 2
		var x0, x1 float64
		if label == 1 {
			x0 = rng.Float64() + 0.5 + margin
			x1 = rng.Float64() + 0.5 + margin
		} else {
			x0 = rng.Float64()*0.4 - 0.2
			x1 = rng.Float64()*0.4 - 0.2
		}
		if err := d.Add([]float64{x0, x1}, label); err != nil {
			panic(err)
		}
	}
	return d
}

// XOR returns n instances of the 2-D XOR problem with the given jitter —
// not linearly separable, so linear models fail while TAN and RBF SVMs
// succeed.
func XOR(n int, jitter float64, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := ml.NewDataset([]string{"a", "b"})
	for i := 0; i < n; i++ {
		qx, qy := i%2, (i/2)%2
		label := qx ^ qy
		x0 := float64(qx) + rng.NormFloat64()*jitter
		x1 := float64(qy) + rng.NormFloat64()*jitter
		if err := d.Add([]float64{x0, x1}, label); err != nil {
			panic(err)
		}
	}
	return d
}

// NoisyGaussians returns overlapping class-conditional Gaussians with the
// given separation (in standard deviations) across p attributes, of which
// only the first informative ones carry signal.
func NoisyGaussians(n, p, informative int, sep float64, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, p)
	for j := range names {
		names[j] = "attr" + string(rune('A'+j%26))
		if j >= 26 {
			names[j] += "2"
		}
	}
	// Ensure unique names for wide datasets.
	for j := range names {
		names[j] = names[j] + "_" + itoa(j)
	}
	d := ml.NewDataset(names)
	for i := 0; i < n; i++ {
		label := i % 2
		vals := make([]float64, p)
		for j := 0; j < p; j++ {
			mu := 0.0
			if j < informative && label == 1 {
				mu = sep
			}
			vals[j] = mu + rng.NormFloat64()
		}
		if err := d.Add(vals, label); err != nil {
			panic(err)
		}
	}
	return d
}

// OneClass returns a dataset whose every instance has the same label.
func OneClass(n int, label int) *ml.Dataset {
	d := ml.NewDataset([]string{"a"})
	for i := 0; i < n; i++ {
		if err := d.Add([]float64{float64(i)}, label); err != nil {
			panic(err)
		}
	}
	return d
}

// Evaluate trains nothing: it runs a fitted classifier over a test set and
// returns the confusion matrix.
func Evaluate(c ml.Classifier, test *ml.Dataset) ml.Confusion {
	var conf ml.Confusion
	var s ml.Scratch
	buf := make([]float64, test.NumAttrs())
	for i := range test.Y {
		conf.Add(test.Y[i], c.Predict(test.RowTo(buf, i), &s))
	}
	return conf
}

// CrossValidate runs stratified k-fold cross validation of the learner on
// the dataset and returns the pooled balanced accuracy.
func CrossValidate(l ml.Learner, d *ml.Dataset, k int, seed int64) (float64, error) {
	folds, err := ml.StratifiedFolds(d, k, seed)
	if err != nil {
		return 0, err
	}
	return ml.CrossValidateFolds(l, d, folds)
}

// TrainAccuracy fits the classifier and returns its balanced accuracy on
// the training set itself.
func TrainAccuracy(c ml.Classifier, d *ml.Dataset) (float64, error) {
	if err := c.Fit(d); err != nil {
		return 0, err
	}
	return Evaluate(c, d).BalancedAccuracy(), nil
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
