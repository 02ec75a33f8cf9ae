package experiment

import (
	"fmt"
	"strings"

	"hpcap/internal/registry"
	"hpcap/internal/serve"
	"hpcap/internal/tpcw"
)

// DriftReplay is the result of one end-to-end adaptive-lifecycle replay:
// a browsing-trained monitor serves a trace whose mix is scripted over to
// ordering mid-run, the drift detectors notice, the registry retrains on
// the labeled history and hot-swaps the winning candidate — all
// synchronously, so the run is a pure function of the lab's seed.
type DriftReplay struct {
	// Log is the golden-pinned transcript: one line per decided window
	// interleaved with the lifecycle events observed while labeling it.
	Log string
	// Windows and FrozenWindows are the decision counts of the adaptive
	// and the frozen (never-swapped) replay of the same recorded trace;
	// a loss-free swap keeps them equal.
	Windows, FrozenWindows int
	// Swaps counts hot-swaps; SwapSeq is the first window the swapped-in
	// model decided (0 if no swap happened).
	Swaps   int
	SwapSeq int64
	// AdaptiveHits / FrozenHits count correct overload verdicts over the
	// post-swap tail of the trace, for the two replays respectively, out
	// of PostSwapWindows windows.
	AdaptiveHits, FrozenHits, PostSwapWindows int
}

// RunDriftReplay replays the adaptive model lifecycle end to end at the
// HPC level through the inline pipeline and returns its transcript.
// workers bounds the synopsis-build fan-out during both initial training
// and the retrain; the transcript is bit-identical for any value, and at
// any shard count (TestReplay pins both).
func (l *Lab) RunDriftReplay(workers int) (*DriftReplay, error) {
	return l.runDriftReplay(workers, front{})
}

// runDriftReplay declares the drift scenario: the mix-shift schedule, no
// stream transform, and a lifecycle that may retrain after 32 labeled
// windows and swaps on any shadow improvement. The frozen replay of the
// same trace is the incumbent the swap is scored against, window by
// window, paired by Seq.
func (l *Lab) runDriftReplay(workers int, f front) (*DriftReplay, error) {
	r, err := l.newReplay(workers, f)
	if err != nil {
		return nil, err
	}
	wo, err := l.Workload(tpcw.Ordering())
	if err != nil {
		return nil, err
	}
	tr, st, err := r.record(MixShiftSchedule(r.wb, wo, l.Scale), driftReplaySeed)
	if err != nil {
		return nil, err
	}
	frozen, err := r.decide(st)
	if err != nil {
		return nil, err
	}

	var log strings.Builder
	res := &DriftReplay{FrozenWindows: len(frozen)}
	out, err := r.run(tr, st, pass{
		cfg: serve.Config{OnSwap: func(ev serve.SwapEvent) {
			res.Swaps++
			res.SwapSeq = ev.Seq
		}},
		lc:     registry.Config{Drift: replayDrift, MinTrainWindows: 32, SwapMargin: -1},
		events: &log,
		line: func(d serve.Decision, w *Window) {
			fmt.Fprintf(&log, "window seq=%d mix=%s predicted=%t truth=%t version=%d\n",
				d.Seq, w.Mix, d.Prediction.Overload, w.Overload == 1, d.ModelVersion)
		},
	})
	if err != nil {
		return nil, err
	}
	res.Windows = len(out.decisions)

	if res.Swaps > 0 {
		incumbent := verdicts(frozen)
		for _, d := range out.decisions {
			fv, ok := incumbent[d.Seq]
			if d.Seq < res.SwapSeq || !ok {
				continue
			}
			truth := tr.Windows[d.Seq-1].Overload == 1
			res.PostSwapWindows++
			if d.Prediction.Overload == truth {
				res.AdaptiveHits++
			}
			if fv == truth {
				res.FrozenHits++
			}
		}
	}
	fmt.Fprintf(&log, "replay windows=%d frozen=%d swaps=%d swap_seq=%d post_swap_windows=%d adaptive_hits=%d frozen_hits=%d\n",
		res.Windows, res.FrozenWindows, res.Swaps, res.SwapSeq,
		res.PostSwapWindows, res.AdaptiveHits, res.FrozenHits)
	res.Log = log.String()
	return res, nil
}
