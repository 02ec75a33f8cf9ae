package serve

import (
	"time"

	"hpcap/internal/core"
)

// FramePool reports an Ingest's decoded-frame pool: the frames on loan to
// lanes and shards now, and every frame the pool has made.
func (in *Ingest) FramePool() (lent, made int) {
	p := &in.frames
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lent, p.lent + len(p.free)
}

// NewShardedGeometry is NewShardedPipeline at a batch size and a queue
// depth (in batches) of the caller's choosing; the pipeline itself always
// runs on batchSize and queueBatches.
func NewShardedGeometry(m *core.Monitor, cfg Config, shards, batch, queueBatches int) (*ShardedPipeline, error) {
	sp := &ShardedPipeline{}
	if err := sp.configure(m, cfg); err != nil {
		return nil, err
	}
	sp.geometry(m, shards, batch, queueBatches)
	return sp, nil
}

// DefaultGeometry reports the batch size and queue depth NewShardedPipeline
// runs on.
func DefaultGeometry() (batch, queueBatches int) { return batchSize, queueBatches }

// SetNow replaces the wall clock used to stamp LastFrameAt. Reporting
// only — nothing on the decision path reads it. Call before serving.
func (in *Ingest) SetNow(now func() time.Time) { in.now = now }

// Valid reports whether the ref came from Register.
func (r SiteRef) Valid() bool { return r.index > 0 }
