package predictor

import (
	"fmt"
	"sync/atomic"
)

// Counter exposes one Hc value (for tests).
func (p *Predictor) Counter(gpv []int, history int) (int, error) {
	idx, err := p.gpvIndex(gpv)
	if err != nil {
		return 0, err
	}
	t := p.tab.Load()
	if history < 0 || history >= 1<<t.hbits {
		return 0, fmt.Errorf("predictor: history index %d out of range", history)
	}
	return int(atomic.LoadInt32(&t.lht[idx<<t.hbits|history])), nil
}
