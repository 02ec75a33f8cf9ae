package server

// VisitFractions returns each pool's expected visits per request: the
// entry sees every request once; a cache's downstream sees only its miss
// fraction. Pools reached along several paths accumulate. The topology
// must validate first (cycles would not terminate deterministically);
// unknown downstream names are skipped.
func (tc TopologyConfig) VisitFractions() map[string]float64 {
	index := make(map[string]int, len(tc.Pools))
	for i, p := range tc.Pools {
		index[p.Name] = i
	}
	out := make(map[string]float64, len(tc.Pools))
	var walk func(i int, visits float64)
	walk = func(i int, visits float64) {
		p := tc.Pools[i]
		out[p.Name] += visits
		down := visits
		if p.Kind == PoolCache {
			down = visits * (1 - p.HitRatio)
		}
		for _, d := range p.Downstream {
			if j, ok := index[d]; ok {
				walk(j, down)
			}
		}
	}
	if i, ok := index[tc.Entry]; ok {
		walk(i, 1)
	}
	return out
}
