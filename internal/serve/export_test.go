package serve

// FramePool reports an Ingest's decoded-frame pool: the frames on loan to
// lanes and shards now, and every frame the pool has made.
func (in *Ingest) FramePool() (lent, made int) {
	p := &in.frames
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lent, p.lent + len(p.free)
}
