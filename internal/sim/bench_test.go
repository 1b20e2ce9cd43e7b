package sim

import (
	"math/rand"
	"strconv"
	"testing"
)

type benchSink struct{ n uint64 }

func (s *benchSink) OnEvent(tag uint64) { s.n += tag }

// BenchmarkSimSchedule measures the closure-free schedule+dispatch cycle of
// the calendar queue in steady state: one insert and one pop per iteration,
// with the timer horizon spread across the wheel.
func BenchmarkSimSchedule(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	sink := &benchSink{}
	for i := 0; i < b.N; i++ {
		s.AfterEvent(Time(i%1000)*Microsecond, sink, 1)
		s.Step()
	}
	s.Drain()
	if sink.n == 0 {
		b.Fatal("no events ran")
	}
}

// BenchmarkSimScheduleFar exercises the far-future heap spill: every
// insertion lands beyond the wheel horizon and must migrate back in.
func BenchmarkSimScheduleFar(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	sink := &benchSink{}
	for i := 0; i < b.N; i++ {
		s.AfterEvent(10*Millisecond, sink, 1) // past the 1024-bucket horizon
		s.Step()
	}
	s.Drain()
	if sink.n == 0 {
		b.Fatal("no events ran")
	}
}

// BenchmarkTimerWheelParkedSlot measures one insert and one pop against a
// level-0 slot already holding n entries, all parked there because their
// deadlines lie before the wheel position. Per-op cost should grow with
// log n, not n.
func BenchmarkTimerWheelParkedSlot(b *testing.B) {
	for _, n := range []int{64, 1024, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			const cur = 1 << 20
			var w timerWheel
			w.cur = cur
			rng := rand.New(rand.NewSource(1))
			deadline := func() Time { return Time(rng.Int63n(cur << bucketShift)) }
			seq := uint64(0)
			timers := make([]Timer, n+1)
			for i := 0; i < n; i++ {
				seq++
				w.insert(deadline(), seq, 0, &timers[i], nil, nil)
			}
			free := &timers[n] // the popped entry's timer arms the next insert
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq++
				w.insert(deadline(), seq, 0, free, nil, nil)
				if _, _, ok := w.peek(); !ok {
					b.Fatal("empty wheel")
				}
				_, e := w.pop()
				free = e.t
			}
		})
	}
}
