package serve

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/server"
)

// trainTestMonitor builds a small trained monitor for engine-level tests.
func trainTestMonitor(t *testing.T, seed int64) *core.Monitor {
	t.Helper()
	names := []string{"m_load", "m_noise"}
	mk := func(workload string, hot server.TierID) core.TrainingSet {
		set := core.TrainingSet{Workload: workload}
		for i := 0; i < 48; i++ {
			overload := 0
			if (i/8)%2 == 1 {
				overload = 1
			}
			var vecs [server.NumTiers][]float64
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				load := 0.2 + 0.01*float64((i*7+int(tier)*3+int(seed))%10)
				if overload == 1 && tier == hot {
					load += 0.6
				}
				vecs[tier] = []float64{load, float64((i + int(tier)) % 5)}
			}
			set.Windows = append(set.Windows, core.LabeledWindow{
				Observation: core.Observation{Time: float64(i * 30), Vectors: vecs},
				Overload:    overload,
				Bottleneck:  hot,
			})
		}
		return set
	}
	m, err := core.Train(metrics.LevelHPC, names,
		[]core.TrainingSet{mk("a", 0), mk("b", 1)}, core.Config{
			Learner: bayes.NaiveLearner(),
			Seed:    seed,
		})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSwappedOffMonitorIsCollected pins bounded memory across hot swaps:
// a site swapped through four monitors, each deciding a window, and then
// onto a fifth holds none of the four once they are off it, so a
// long-lived daemon promoting model after model keeps only the ones in
// service.
func TestSwappedOffMonitorIsCollected(t *testing.T) {
	p, err := NewPipeline(trainTestMonitor(t, 0), Config{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int32
	now := 0.0
	feed := func() {
		for k := 0; k < 3; k++ {
			now++
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				p.Ingest(Sample{Site: "s", Tier: tier, Time: now, Values: []float64{0.5, 1}})
			}
		}
	}
	for v := int64(1); v <= 4; v++ {
		m := trainTestMonitor(t, v)
		runtime.SetFinalizer(m, func(*core.Monitor) { collected.Add(1) })
		if _, err := p.SwapMonitor("s", m, v); err != nil {
			t.Fatal(err)
		}
		feed()
	}
	if _, err := p.SwapMonitor("s", trainTestMonitor(t, 5), 5); err != nil {
		t.Fatal(err)
	}
	feed()
	p.Flush()
	if got := p.Stats()[0].WindowsDecided; got < 5 {
		t.Fatalf("site decided %d windows, want one per monitor (5)", got)
	}
	for try := 0; try < 50 && collected.Load() < 4; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != 4 {
		t.Fatalf("%d of 4 swapped-off monitors collected", got)
	}
	runtime.KeepAlive(p)
}

// TestQueueSlotSize pins the queue slot at 104 bytes: slots move by value
// through every batch, and a larger one slows the in-process fleet path.
func TestQueueSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(qsample{}); n > 104 {
		t.Errorf("qsample is %d bytes, want <= 104", n)
	}
}
