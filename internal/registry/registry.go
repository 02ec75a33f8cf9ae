// Package registry closes the paper's train→serve loop: it keeps a
// versioned store of trained monitors per site and runs the adaptive model
// lifecycle on top of the serving pipeline. The caller pairs each published
// decision with its ground truth and hands the labeled window to
// Manager.Observe; a caller whose truth comes late buffers the decisions
// until it arrives, and the manager keeps no pending state of its own.
// Observe feeds the pair to the internal/drift detectors and — when drift
// fires — snapshots the site's recent labeled windows into a training set,
// retrains a candidate monitor (through the zero-copy training fast path,
// fanned out over internal/parallel workers), shadow-evaluates the
// candidate against the serving incumbent on a held-out tail of the same
// history, and hot-swaps the site's model via serve.Pipeline.SwapMonitor
// when the candidate wins.
//
// The whole lifecycle is deterministic given the observation sequence when
// run synchronously (Config.Background false): retraining happens inline
// on the Observe call that crossed the drift threshold, so replays
// reproduce the identical event sequence — the drift-replay golden in
// internal/experiment pins this end to end. The daemon runs with
// Background true, which moves retraining to a goroutine and publishes
// the swap whenever it completes.
package registry

import (
	"sync"

	"hpcap/internal/core"
)

// Version is one entry in a site's model history.
type Version struct {
	// ID is the site-local version number: 0 is the initial model the
	// pipeline was built with, retrained candidates count up from 1.
	ID      int64
	Monitor *core.Monitor
	// Reason summarizes what triggered the build ("initial", or the
	// drift signal that prompted the retrain).
	Reason string
	// Windows is how many labeled windows the training snapshot held
	// (0 for the initial model).
	Windows int
	// CandidateBA and IncumbentBA are the shadow-evaluation balanced
	// accuracies of this candidate and the then-serving incumbent on the
	// held-out replay slice (0 for the initial model).
	CandidateBA, IncumbentBA float64
	// Swapped records whether the candidate won the shadow evaluation
	// and became the active model; SwapSeq is the first window it
	// decided (-1 while not swapped; 0 for the initial model).
	Swapped bool
	SwapSeq int64
}

// Store is the versioned model store: every candidate a site ever trained,
// swapped or rejected, in build order. Safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	sites map[string][]Version
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{sites: make(map[string][]Version)}
}

// Register appends a version to a site's history, assigning the next ID,
// and returns the stored entry.
func (s *Store) Register(site string, v Version) Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	v.ID = int64(len(s.sites[site]))
	s.sites[site] = append(s.sites[site], v)
	return v
}

// RecordSwap marks a registered version as the site's active model from
// window seq on.
func (s *Store) RecordSwap(site string, id, seq int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.sites[site]
	if id >= 0 && id < int64(len(vs)) {
		vs[id].Swapped = true
		vs[id].SwapSeq = seq
	}
}

// History returns a copy of the site's full version history in build order.
func (s *Store) History(site string) []Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Version(nil), s.sites[site]...)
}

// Sites returns the number of sites with at least one registered version.
func (s *Store) Sites() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sites)
}
