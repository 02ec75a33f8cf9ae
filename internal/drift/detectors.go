package drift

import "math"

// PageHinkley is the sequential test for an upward shift of a stream's
// mean: it accumulates m_t = Σ (x_i − mean_i − δ) and signals when m_t
// rises more than λ above its running minimum. On the 0/1 prediction-error
// stream, the statistic reads as "errors in excess of the baseline rate":
// random fluctuation cancels against the adapting mean while a genuine
// accuracy collapse accumulates roughly (new rate − old rate) per window.
type PageHinkley struct {
	delta      float64
	lambda     float64
	minSamples int

	n    int
	mean float64
	cum  float64
	min  float64
}

// NewPageHinkley builds the test; see Config.PHDelta/PHLambda/MinWindows
// for the parameter semantics.
func NewPageHinkley(delta, lambda float64, minSamples int) *PageHinkley {
	return &PageHinkley{delta: delta, lambda: lambda, minSamples: minSamples}
}

// Add folds one value into the test and reports whether the statistic
// crossed the threshold. Non-finite values are ignored.
func (ph *PageHinkley) Add(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	ph.n++
	ph.mean += (x - ph.mean) / float64(ph.n)
	ph.cum += x - ph.mean - ph.delta
	if ph.cum < ph.min {
		ph.min = ph.cum
	}
	return ph.n >= ph.minSamples && ph.Stat() > ph.lambda
}

// Stat returns the current test statistic m_t − min m.
func (ph *PageHinkley) Stat() float64 { return ph.cum - ph.min }

// Reset clears the test to its initial state.
func (ph *PageHinkley) Reset() {
	ph.n, ph.mean, ph.cum, ph.min = 0, 0, 0, 0
}

// mixShift compares a reference request-class histogram against a sliding
// recent histogram with the Jensen–Shannon divergence.
type mixShift struct {
	threshold  float64
	patience   int
	refWindows int

	ref  []float64 // accumulated reference counts
	refN int
	ring [][]float64 // recent windows' sanitized counts
	head int
	n    int64
	over int
}

func newMixShift(cfg Config) *mixShift {
	return &mixShift{
		threshold:  cfg.MixThreshold,
		patience:   cfg.MixPatience,
		refWindows: cfg.MixRefWindows,
		ring:       make([][]float64, cfg.MixWindow),
	}
}

// observe pushes one window's class counts and reports a sustained
// divergence, along with the JSD at the firing point.
func (m *mixShift) observe(counts []float64) (bool, float64) {
	clean := sanitizeCounts(counts)
	if m.refN < m.refWindows {
		m.ref = accumulate(m.ref, clean)
		m.refN++
		return false, 0
	}
	m.ring[m.head] = clean
	m.head = (m.head + 1) % len(m.ring)
	m.n++
	if m.n < int64(len(m.ring)) {
		return false, 0
	}
	var recent []float64
	for _, c := range m.ring {
		recent = accumulate(recent, c)
	}
	jsd := jensenShannon(m.ref, recent)
	if jsd > m.threshold {
		m.over++
		if m.over >= m.patience {
			m.over = 0
			return true, jsd
		}
	} else {
		m.over = 0
	}
	return false, 0
}

func (m *mixShift) reset() {
	m.head, m.n, m.over = 0, 0, 0
	for i := range m.ring {
		m.ring[i] = nil
	}
	m.ref, m.refN = nil, 0
}

// sanitizeCounts copies counts with NaN/Inf/negative entries clipped to 0.
func sanitizeCounts(counts []float64) []float64 {
	dst := make([]float64, len(counts))
	for i, v := range counts {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			v = 0
		}
		dst[i] = v
	}
	return dst
}

// accumulate adds src into dst element-wise, growing dst as needed.
func accumulate(dst, src []float64) []float64 {
	if len(src) > len(dst) {
		grown := make([]float64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// jensenShannon returns the Jensen–Shannon divergence (natural log) of two
// count vectors after normalization. Degenerate inputs (empty, all-zero)
// return 0 — never a signal.
func jensenShannon(a, b []float64) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	at := func(xs []float64, i int) float64 {
		if i < len(xs) {
			return xs[i]
		}
		return 0
	}
	var sa, sb float64
	for i := 0; i < n; i++ {
		sa += at(a, i)
		sb += at(b, i)
	}
	if sa <= 0 || sb <= 0 {
		return 0
	}
	var jsd float64
	for i := 0; i < n; i++ {
		p, q := at(a, i)/sa, at(b, i)/sb
		m := (p + q) / 2
		if p > 0 {
			jsd += p / 2 * math.Log(p/m)
		}
		if q > 0 {
			jsd += q / 2 * math.Log(q/m)
		}
	}
	if jsd < 0 || math.IsNaN(jsd) || math.IsInf(jsd, 0) {
		return 0
	}
	return jsd
}
