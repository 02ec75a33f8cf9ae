package metrics

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"hpcap/internal/server"
)

// scriptedCollector fails its first failN reads, then succeeds forever.
type scriptedCollector struct {
	failN int
	reads int
	v     []float64
}

func (c *scriptedCollector) Tier() server.TierID { return server.TierApp }
func (c *scriptedCollector) Names() []string     { return []string{"a", "b"} }
func (c *scriptedCollector) CollectTo(dst []float64, s server.Snapshot, dt float64) []float64 {
	v, err := c.TryCollectTo(dst, s, dt)
	if err != nil {
		return append(dst[:0], 0, 0)
	}
	return v
}
func (c *scriptedCollector) TryCollectTo(dst []float64, _ server.Snapshot, _ float64) ([]float64, error) {
	c.reads++
	if c.reads <= c.failN {
		return nil, errors.New("scripted failure")
	}
	return append(dst[:0], c.v...), nil
}

func TestRetryCollectorRecoversWithinBudget(t *testing.T) {
	src := &scriptedCollector{failN: 2, v: []float64{1, 2}}
	r := NewRetryCollector(src, 3)

	got := r.Collect(server.Snapshot{}, 1)
	if !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Fatalf("Collect = %v, want the source vector after retries", got)
	}
	if r.Retries() != 2 || r.Failures() != 0 {
		t.Errorf("retries=%d failures=%d, want 2 and 0", r.Retries(), r.Failures())
	}
}

func TestRetryCollectorFallsBackToLastGood(t *testing.T) {
	src := &scriptedCollector{v: []float64{3, 4}}
	r := NewRetryCollector(src, 1)
	if got := r.Collect(server.Snapshot{}, 1); !reflect.DeepEqual(got, []float64{3, 4}) {
		t.Fatalf("first Collect = %v", got)
	}
	// Fail every remaining attempt: the stale-but-finite vector comes back.
	src.failN = 1 << 30
	src.reads = 0
	got := r.Collect(server.Snapshot{}, 1)
	if !reflect.DeepEqual(got, []float64{3, 4}) {
		t.Fatalf("fallback Collect = %v, want last good [3 4]", got)
	}
	if r.Failures() != 1 || r.Retries() != 1 {
		t.Errorf("failures=%d retries=%d, want 1 and 1", r.Failures(), r.Retries())
	}
}

func TestRetryCollectorZerosBeforeFirstSuccess(t *testing.T) {
	src := &scriptedCollector{failN: 1 << 30, v: []float64{9, 9}}
	r := NewRetryCollector(src, -5) // negative clamps to a single attempt
	got := r.Collect(server.Snapshot{}, 1)
	if !reflect.DeepEqual(got, []float64{0, 0}) {
		t.Fatalf("pre-success fallback = %v, want zeros sized to Names()", got)
	}
	if r.MaxRetries != 0 {
		t.Errorf("negative maxRetries kept %d, want 0", r.MaxRetries)
	}
	if r.Tier() != server.TierApp || len(r.Names()) != 2 {
		t.Error("Tier/Names not delegated to the source")
	}
}

// TestRetryCollectorFallbackIsACopy: a caller that keeps a fallback vector
// does not see the next good read overwrite it.
func TestRetryCollectorFallbackIsACopy(t *testing.T) {
	src := &scriptedCollector{v: []float64{3, 4}}
	r := NewRetryCollector(src, 0)
	r.Collect(server.Snapshot{}, 1)
	src.failN, src.reads = 1, 0
	held := r.Collect(server.Snapshot{}, 1)
	want := []uint64{math.Float64bits(3), math.Float64bits(4)}
	src.v = []float64{5, -7}
	if got := r.Collect(server.Snapshot{}, 1); !reflect.DeepEqual(got, src.v) {
		t.Fatalf("good read after the fallback = %v, want %v", got, src.v)
	}
	for i, x := range held {
		if math.Float64bits(x) != want[i] {
			t.Fatalf("held fallback vector = %v after a good read, want [3 4] unchanged", held)
		}
	}
}

// TestRetryCollectorCollectToOverwritesScratch: CollectTo into a dirty
// scratch vector leaves nothing of it behind — zeros before the first
// success, the good read, then the last good values on failure — and
// writes in place when the scratch has room.
func TestRetryCollectorCollectToOverwritesScratch(t *testing.T) {
	src := &scriptedCollector{failN: 1, v: []float64{3, 4}}
	r := NewRetryCollector(src, 0)
	scratch := []float64{-1, -1}
	for i, want := range [][]float64{{0, 0}, {3, 4}} {
		got := r.CollectTo(scratch, server.Snapshot{}, 1)
		if !reflect.DeepEqual(got, want) || &got[0] != &scratch[0] {
			t.Fatalf("read %d: CollectTo = %v (in place %v), want %v in place", i, got, &got[0] == &scratch[0], want)
		}
		scratch[0], scratch[1] = -1, -1
	}
	src.failN, src.reads = 1, 0
	if got := r.CollectTo(scratch, server.Snapshot{}, 1); !reflect.DeepEqual(got, []float64{3, 4}) {
		t.Fatalf("fallback CollectTo = %v, want last good [3 4]", got)
	}
}
