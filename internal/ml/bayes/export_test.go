package bayes

// Parents exposes the learned tree structure (parent attribute per
// attribute; -1 for the root). It is nil before Fit.
func (t *TAN) Parents() []int {
	if t.parent == nil {
		return nil
	}
	out := make([]int, len(t.parent))
	for j, pj := range t.parent {
		out[j] = int(pj)
	}
	out[t.root] = -1
	return out
}
