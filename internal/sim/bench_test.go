package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineHold is the classic hold model: N far timers sit in the
// queue while one near event reschedules itself, the shape of a tier's
// next quantum or a browser's next think among many sleeping browsers.
// One op is one fired event and the one event its callback schedules.
func BenchmarkEngineHold(b *testing.B) {
	for _, n := range []int{16, 343, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			e := NewEngine()
			far := func() {}
			for i := 0; i < n; i++ {
				e.Schedule(1e9+float64(i), far)
			}
			var tick func()
			tick = func() { e.Schedule(0.001, tick) }
			e.Schedule(0, tick)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

var sinkDraw int64

// BenchmarkNewSource prices one spawned browser's generator: a seed and
// the ≈ 30 draws a browser makes over its life.
func BenchmarkNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSource(int64(i))
		for j := 0; j < 30; j++ {
			sinkDraw += s.rng.Int63()
		}
	}
}
