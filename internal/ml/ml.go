// Package ml provides the machine-learning substrate the paper adapts from
// WEKA (§IV.B): dataset handling, the classifier interface implemented by
// the four synopsis builders (linear regression, naive Bayes, TAN, SVM),
// stratified k-fold cross validation, and the Balanced Accuracy metric used
// throughout the evaluation (§IV.A).
package ml

import (
	"errors"
	"fmt"
	"math/rand"
)

// Dataset is a fixed-width table of instances with binary class labels
// (0 = underload, 1 = overload in the capacity-measurement setting).
//
// Datasets are cheap to slice: Project returns an index-based column view
// and Subset shares row storage, so the attribute-selection wrapper can
// evaluate dozens of candidate subsets over ten folds each without copying
// the underlying matrix. Access instance values through At, Row, RowTo, or
// Column — never assume a view's rows are dense.
type Dataset struct {
	AttrNames []string
	// Y holds the class labels. It is always materialized (views share or
	// copy it, but never remap it), so callers may index it directly.
	Y []int

	// x holds the backing rows. A projected view's rows are wider than the
	// dataset; cols maps view attribute j to its backing column.
	x    [][]float64
	cols []int // nil ⇒ attribute j is backing column j
}

// NewDataset returns an empty dataset over the named attributes.
func NewDataset(attrNames []string) *Dataset {
	names := make([]string, len(attrNames))
	copy(names, attrNames)
	return &Dataset{AttrNames: names}
}

// Add appends one instance. The value vector is copied. Projected views
// reject appends: their rows alias another dataset's storage.
func (d *Dataset) Add(values []float64, label int) error {
	if d.cols != nil {
		return errors.New("ml: cannot append to a projected dataset view")
	}
	if len(values) != len(d.AttrNames) {
		return fmt.Errorf("ml: instance has %d values, dataset has %d attributes",
			len(values), len(d.AttrNames))
	}
	if label != 0 && label != 1 {
		return fmt.Errorf("ml: label must be 0 or 1, got %d", label)
	}
	row := make([]float64, len(values))
	copy(row, values)
	d.x = append(d.x, row)
	d.Y = append(d.Y, label)
	return nil
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.x) }

// NumAttrs returns the number of attributes.
func (d *Dataset) NumAttrs() int { return len(d.AttrNames) }

// col maps attribute index j to its backing column.
func (d *Dataset) col(j int) int {
	if d.cols == nil {
		return j
	}
	return d.cols[j]
}

// At returns the value of attribute j of instance i.
func (d *Dataset) At(i, j int) float64 { return d.x[i][d.col(j)] }

// Row returns instance i as a dense attribute vector. On a non-projected
// dataset the returned slice aliases internal storage and must not be
// modified; on a projected view it is freshly gathered.
func (d *Dataset) Row(i int) []float64 {
	if d.cols == nil {
		return d.x[i]
	}
	return d.RowTo(make([]float64, len(d.cols)), i)
}

// RowTo returns instance i as a dense attribute vector, gathering a
// projected view's values into buf (grown as needed). On a non-projected
// dataset it returns the shared backing row without copying; either way
// the result is only valid until the next call with the same buf and must
// not be modified.
func (d *Dataset) RowTo(buf []float64, i int) []float64 {
	if d.cols == nil {
		return d.x[i]
	}
	if cap(buf) < len(d.cols) {
		buf = make([]float64, len(d.cols))
	}
	buf = buf[:len(d.cols)]
	row := d.x[i]
	for k, c := range d.cols {
		buf[k] = row[c]
	}
	return buf
}

// ClassCounts returns the number of instances labeled 0 and 1.
func (d *Dataset) ClassCounts() (n0, n1 int) {
	for _, y := range d.Y {
		if y == 1 {
			n1++
		} else {
			n0++
		}
	}
	return n0, n1
}

// ColumnTo gathers one attribute column into buf (grown as needed) and
// returns it.
func (d *Dataset) ColumnTo(buf []float64, j int) []float64 {
	if cap(buf) < len(d.x) {
		buf = make([]float64, len(d.x))
	}
	buf = buf[:len(d.x)]
	c := d.col(j)
	for i, row := range d.x {
		buf[i] = row[c]
	}
	return buf
}

// Project returns a view containing only the attributes at the given
// indices. Rows and labels share storage with the original: no values are
// copied, so projecting is O(len(attrs)) regardless of dataset size.
func (d *Dataset) Project(attrs []int) (*Dataset, error) {
	names := make([]string, len(attrs))
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		if a < 0 || a >= d.NumAttrs() {
			return nil, fmt.Errorf("ml: attribute index %d out of range", a)
		}
		names[i] = d.AttrNames[a]
		cols[i] = d.col(a)
	}
	return &Dataset{AttrNames: names, Y: d.Y, x: d.x, cols: cols}, nil
}

// Subset returns a dataset view containing the rows at the given indices
// (row storage is shared, not copied; any column projection carries over).
func (d *Dataset) Subset(rows []int) *Dataset {
	out := &Dataset{AttrNames: d.AttrNames, cols: d.cols}
	out.x = make([][]float64, 0, len(rows))
	out.Y = make([]int, 0, len(rows))
	for _, r := range rows {
		out.x = append(out.x, d.x[r])
		out.Y = append(out.Y, d.Y[r])
	}
	return out
}

// Classifier is a trainable binary classifier over continuous attributes.
// Fit leaves the model as flat scoring tables, and Predict walks them
// with every temporary in the caller's Scratch, so a fitted classifier is
// immutable and safe for concurrent use by callers holding distinct
// scratches.
type Classifier interface {
	// Fit trains on the dataset, replacing any previous model.
	Fit(d *Dataset) error
	// Predict returns the predicted class (0 or 1) for one instance.
	Predict(x []float64, s *Scratch) int
}

// Learner constructs fresh classifiers; it is what synopsis builders and
// cross validation consume so that every fold trains an independent model.
type Learner struct {
	Name string
	New  func() Classifier
}

// ErrNoData is returned when fitting an empty dataset.
var ErrNoData = errors.New("ml: empty training set")

// ErrOneClass is returned when the training set contains a single class;
// callers typically fall back to majority prediction.
var ErrOneClass = errors.New("ml: training set has a single class")

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, TN, FP, FN int
}

// Add records one (truth, prediction) pair.
func (c *Confusion) Add(truth, pred int) {
	switch {
	case truth == 1 && pred == 1:
		c.TP++
	case truth == 0 && pred == 0:
		c.TN++
	case truth == 0 && pred == 1:
		c.FP++
	default:
		c.FN++
	}
}

// BalancedAccuracy returns the mean of the true-positive and true-negative
// rates — the paper's evaluation metric (§IV.A). If one class is absent
// from the truth, the other class's rate is reported alone so that a
// degenerate test set does not divide by zero.
func (c Confusion) BalancedAccuracy() float64 {
	pos := c.TP + c.FN
	neg := c.TN + c.FP
	switch {
	case pos == 0 && neg == 0:
		return 0
	case pos == 0:
		return float64(c.TN) / float64(neg)
	case neg == 0:
		return float64(c.TP) / float64(pos)
	default:
		tpr := float64(c.TP) / float64(pos)
		tnr := float64(c.TN) / float64(neg)
		return (tpr + tnr) / 2
	}
}

// StratifiedFolds partitions row indices into k folds preserving class
// proportions, shuffled deterministically by seed. The folds depend only
// on the labels and the seed, so a projected view of a dataset yields the
// same folds as the dataset itself — CrossValidateFolds exploits this to
// reuse one partition across every candidate attribute subset.
func StratifiedFolds(d *Dataset, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("ml: need at least 2 folds, got %d", k)
	}
	if d.Len() < k {
		return nil, fmt.Errorf("ml: %d instances cannot fill %d folds", d.Len(), k)
	}
	rng := rand.New(rand.NewSource(seed))
	var pos, neg []int
	for i, y := range d.Y {
		if y == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })

	folds := make([][]int, k)
	deal := func(rows []int) {
		for i, r := range rows {
			folds[i%k] = append(folds[i%k], r)
		}
	}
	deal(pos)
	deal(neg)
	return folds, nil
}

// CrossValidateFolds runs cross validation of the learner over a fold
// partition (StratifiedFolds) and returns the pooled balanced accuracy. A
// fold whose training partition fails to fit (e.g. one-class) falls back
// to majority-class prediction for that fold, as WEKA does. Callers that
// evaluate many views of one dataset (the attribute selection wrapper)
// stratify once and reuse the folds: the folds depend only on labels and
// seed.
func CrossValidateFolds(l Learner, d *Dataset, folds [][]int) (float64, error) {
	if len(folds) < 2 {
		return 0, fmt.Errorf("ml: need at least 2 folds, got %d", len(folds))
	}
	var conf Confusion
	var s Scratch
	trainRows := make([]int, 0, d.Len())
	rowBuf := make([]float64, d.NumAttrs())
	for fi, test := range folds {
		trainRows = trainRows[:0]
		for fj, f := range folds {
			if fj != fi {
				trainRows = append(trainRows, f...)
			}
		}
		train := d.Subset(trainRows)
		c := l.New()
		if err := c.Fit(train); err != nil {
			maj := majorityClass(train)
			for _, r := range test {
				conf.Add(d.Y[r], maj)
			}
			continue
		}
		for _, r := range test {
			conf.Add(d.Y[r], c.Predict(d.RowTo(rowBuf, r), &s))
		}
	}
	return conf.BalancedAccuracy(), nil
}

func majorityClass(d *Dataset) int {
	n0, n1 := d.ClassCounts()
	if n1 > n0 {
		return 1
	}
	return 0
}
