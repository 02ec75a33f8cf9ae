package serve

import (
	"hpcap/internal/core"
	"hpcap/internal/server"
)

// Pipeline turns a stream of per-tier 1-second samples into per-window
// decisions for any number of sites, synchronously: it is one engine with
// no queue and no goroutine, applied in place under one lock. A sample's
// decision is published before Ingest returns, on the caller's goroutine.
// All methods are safe for concurrent use (callers serialize on the lock;
// a fleet fed from many producers belongs on a ShardedPipeline).
//
// Callbacks (OnDecision, OnHealth, OnSwap) run outside the lock and may
// call any Pipeline method, including Ingest, SwapMonitor and Flush.
type Pipeline struct {
	lanes
}

// NewPipeline builds a serving pipeline over a trained monitor.
func NewPipeline(m *core.Monitor, cfg Config) (*Pipeline, error) {
	p := &Pipeline{}
	if err := p.configure(m, cfg); err != nil {
		return nil, err
	}
	p.shards = []*shard{{eng: newEngine(m, p.cfg, p.dim)}}
	return p, nil
}

// Ingest feeds one sample. It never panics and never rejects the stream:
// malformed input (unknown tier, wrong dimension, NaN/Inf values or
// timestamps, late or duplicate timestamps) is skipped and counted on the
// site's stats, and a sample that opens a new window first closes the
// previous one under the staleness budget.
func (p *Pipeline) Ingest(s Sample) {
	sh := p.shards[0]
	// A batch of one, on the stack: the same path a shard goroutine runs.
	batch := [1]qsample{{site: s.Site, tier: s.Tier, time: s.Time, vecs: [server.NumTiers][]float64{s.Values}}}
	sh.emu.Lock()
	pubs := sh.eng.processBatch(batch[:], sh, nil)
	sh.emu.Unlock()
	p.publish(sh, pubs)
}

// Flush force-closes every site's in-progress window, emitting whatever
// decisions the staleness budget allows, in site-name order. It is the
// fleet-wide end of stream, not a per-site one: a producer that calls it
// when its own site is done truncates every other site's open window.
func (p *Pipeline) Flush() { p.flushWindows() }
