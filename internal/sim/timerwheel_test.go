package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Property test: under a seeded random workload of arm / stop / re-arm
// operations — including reactions taken from inside timer fires — the
// hierarchical timer wheel delivers exactly the same firing sequence as the
// reference per-event scheduler (TimerBackendEvent, the calendar-queue path
// every release before the wheel used). Same-tick ordering by (deadline,
// arm-seq) is covered implicitly: any divergence reorders the trace.

type twArm struct {
	id    int
	delay Time
}

type twStop struct{ id int }

// timerTrace runs one backend over the script and returns the sequence of
// timer firings as "id@time" strings. The reaction RNG draws in fire order,
// so a single divergence amplifies into a visibly different trace.
func timerTrace(backend TimerBackend, script []Message, reseed int64) []string {
	s := New(7)
	s.SetTimerBackend(backend)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	rng := rand.New(rand.NewSource(reseed))
	timers := make([]Timer, 64)
	var trace []string
	p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(5)
		switch op := msg.(type) {
		case twArm:
			ctx.Retimer(&timers[op.id], op.delay, op.id)
		case twStop:
			timers[op.id].Stop()
		case int:
			trace = append(trace, fmt.Sprintf("%d@%d", op, s.Now()))
			switch rng.Intn(4) {
			case 0: // re-arm self, short horizon (level 0/1)
				ctx.Retimer(&timers[op], Time(rng.Int63n(int64(40*Millisecond))), op)
			case 1: // arm a sibling, long horizon (level 2 / far heap)
				j := rng.Intn(len(timers))
				ctx.Retimer(&timers[j], Time(rng.Int63n(int64(7200*Second))), j)
			case 2: // stop a sibling (possibly not armed)
				timers[rng.Intn(len(timers))].Stop()
			}
		}
	}), ProcConfig{})
	for i, op := range script {
		op := op
		s.At(Time(i)*50*Microsecond, func() { p.Deliver(op) })
	}
	s.RunUntil(30 * Second)
	return trace
}

func TestTimerWheelMatchesReferenceScheduler(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		var script []Message
		for i := 0; i < 300; i++ {
			switch rng.Intn(6) {
			case 0:
				script = append(script, twStop{id: rng.Intn(64)})
			case 1: // far-future arm: exercises the overflow heap + cascade
				script = append(script, twArm{
					id: rng.Intn(64), delay: Time(rng.Int63n(int64(3*3600) * int64(Second)))})
			default:
				script = append(script, twArm{
					id: rng.Intn(64), delay: Time(rng.Int63n(int64(200 * Millisecond)))})
			}
		}
		wheel := timerTrace(TimerBackendWheel, script, seed)
		ref := timerTrace(TimerBackendEvent, script, seed)
		if len(wheel) == 0 {
			t.Fatalf("seed %d: empty trace (script did not fire)", seed)
		}
		if !reflect.DeepEqual(wheel, ref) {
			n := len(wheel)
			if len(ref) < n {
				n = len(ref)
			}
			for i := 0; i < n; i++ {
				if wheel[i] != ref[i] {
					t.Fatalf("seed %d: traces diverge at %d: wheel=%s ref=%s",
						seed, i, wheel[i], ref[i])
				}
			}
			t.Fatalf("seed %d: trace lengths differ: wheel=%d ref=%d",
				seed, len(wheel), len(ref))
		}
	}
}

// TestTimerArmStopZeroAlloc guards the steady-state contract: arming,
// stopping and firing timers through the wheel allocates nothing once the
// slot buckets it touches are warm. The workload is exactly periodic (the
// period is a power-of-two multiple of the slot width) so every arm lands on
// a slot residue already visited during warmup; a drifting workload would
// instead measure the one-time cost of cold calendar slots, which amortizes
// to zero but never exactly reaches it.
func TestTimerArmStopZeroAlloc(t *testing.T) {
	const (
		period  = Time(1 << 21) // ~2.1 ms: half an L0 wrap, exact slot multiple
		scratch = Time(1 << 20) // lazy-stopped arm, pops stale within the period
	)
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	var timers [8]Timer // 0..3 periodic, 4..7 scratch (armed then stopped)
	p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(10)
		if msg == Message("kick") {
			for i := 0; i < 4; i++ {
				ctx.Retimer(&timers[i], Time(i+1)*(period/8), i)
			}
			return
		}
		// Timer fire: the tcpeng per-segment pattern — re-arm the long-lived
		// timer, arm a helper, cancel it again (the lazy stop leaves a stale
		// entry that is popped and recycled without reaching the handler).
		i := msg.(int)
		ctx.Retimer(&timers[i], period, i)
		ctx.Retimer(&timers[4+i], scratch, 4+i)
		timers[4+i].Stop()
	}), ProcConfig{})
	p.Deliver("kick")
	cursor := Time(0)
	for i := 0; i < 64; i++ {
		cursor += period
		s.RunUntil(cursor)
	}
	allocs := testing.AllocsPerRun(500, func() {
		cursor += period
		s.RunUntil(cursor)
	})
	if allocs != 0 {
		t.Fatalf("timer arm/stop/fire cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTimerStatsPendingAndCascades checks the observability counters: the
// pending gauge tracks armed-but-unfired entries and cascades accumulate
// when long-horizon timers migrate down the levels.
func TestTimerStatsPendingAndCascades(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	var timers [32]Timer
	p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(10)
		if msg == Message("arm") {
			for i := range timers {
				// Beyond level 0 (~4.2 ms): these must cascade to fire.
				ctx.Retimer(&timers[i], 10*Millisecond+Time(i)*Millisecond, i)
			}
		}
	}), ProcConfig{})
	p.Deliver("arm")
	s.Step() // dispatch
	ts := s.TimerStats()
	if ts.Pending != len(timers) {
		t.Fatalf("pending=%d, want %d", ts.Pending, len(timers))
	}
	s.Drain()
	ts = s.TimerStats()
	if ts.Pending != 0 {
		t.Fatalf("pending=%d after drain, want 0", ts.Pending)
	}
	if ts.Fired != uint64(len(timers)) {
		t.Fatalf("fired=%d, want %d", ts.Fired, len(timers))
	}
	if ts.Cascades == 0 {
		t.Fatal("no cascades recorded for level-1 timers")
	}
}

// parkedTrace runs one backend over a burst that lands while the wheel
// position runs ahead of the clock: a lone ~3 ms arm makes the merged pop's
// peek settle the wheel onto its slot, so the dense burst of short arms that
// follows parks in that one slot. The burst mixes shared deadlines (arms of
// one message share a release time, hence one sequence number), several
// flushed runs per dispatch, and stops of armed and in-flight timers. It
// returns the firing trace and whether any arm found the position ahead of
// the clock.
func parkedTrace(backend TimerBackend) (trace []string, parked bool) {
	s := New(3)
	s.SetTimerBackend(backend)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	var long Timer
	timers := make([]Timer, 96)
	p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(7)
		switch op := msg.(type) {
		case string:
			if op == "long" {
				ctx.Retimer(&long, 3*Millisecond, -1)
				return
			}
			if s.tw.cur > int64(s.Now())>>bucketShift {
				parked = true
			}
			// One message: every arm shares a release time. Runs of six
			// consecutive arms share a delay, hence a deadline and one
			// sequence number, and the four delays repeat across messages.
			base := len(op) * 24 // messages "b", "bb", "bbb", "bbbb"
			for i := base - 24; i < base; i++ {
				ctx.Retimer(&timers[i], Time(i/6%4)*Microsecond, i)
				if i%5 == 0 {
					timers[i].Stop() // stopped before the flush
				}
			}
			if len(op) == 2 {
				timers[3].Stop() // stops a timer armed by an earlier message
			}
		case int:
			trace = append(trace, fmt.Sprintf("%d@%d", op, s.Now()))
			if op >= 0 && op%7 == 0 {
				// Re-arm from inside a firing: parks again behind cur.
				ctx.Retimer(&timers[op], 2*Microsecond, op)
			}
		}
	}), ProcConfig{})
	p.Deliver("long")
	s.RunUntil(50 * Microsecond)
	// Four messages handled in one dispatch: four flushed runs.
	for _, b := range []string{"b", "bb", "bbb", "bbbb"} {
		p.Deliver(b)
	}
	s.RunUntil(10 * Millisecond)
	return trace, parked
}

// TestTimerWheelParkedSlotOrder checks that entries parked in the current L0
// slot — deadlines before the wheel position — pop in exactly the reference
// scheduler's order.
func TestTimerWheelParkedSlotOrder(t *testing.T) {
	wheel, parked := parkedTrace(TimerBackendWheel)
	ref, _ := parkedTrace(TimerBackendEvent)
	if !parked {
		t.Fatal("the burst did not find the wheel position ahead of the clock; nothing parked")
	}
	if len(wheel) < 64 {
		t.Fatalf("only %d firings; the burst did not fire", len(wheel))
	}
	if !reflect.DeepEqual(wheel, ref) {
		for i := 0; i < len(wheel) && i < len(ref); i++ {
			if wheel[i] != ref[i] {
				t.Fatalf("traces diverge at %d: wheel=%s ref=%s", i, wheel[i], ref[i])
			}
		}
		t.Fatalf("trace lengths differ: wheel=%d ref=%d", len(wheel), len(ref))
	}
}

// TestTimerStatsStale checks the live/stale split of timer firings on both
// backends: every cancelled arming — stopped before its flush, stopped while
// in flight, or superseded by a re-arm — is counted once as stale when its
// firing reaches dispatch, and live firings are not.
func TestTimerStatsStale(t *testing.T) {
	for _, backend := range []TimerBackend{TimerBackendWheel, TimerBackendEvent} {
		s := New(1)
		s.SetTimerBackend(backend)
		m := NewMachine(s, "m", 1, 1, 1_000_000_000)
		var tm Timer
		live := 0
		p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
			ctx.Charge(10)
			switch msg {
			case "arm-stop": // cancelled before the flush
				ctx.Retimer(&tm, Millisecond, "fire")
				tm.Stop()
			case "arm":
				ctx.Retimer(&tm, Millisecond, "fire")
			case "stop": // cancelled in flight
				tm.Stop()
			case "rearm": // the first arming is superseded
				ctx.Retimer(&tm, Millisecond, "fire")
				ctx.Retimer(&tm, 2*Millisecond, "fire")
			case "fire":
				live++
			}
		}), ProcConfig{})
		const rounds = 5
		for i := 0; i < rounds; i++ {
			for _, op := range []string{"arm-stop", "arm", "stop", "rearm"} {
				p.Deliver(op)
				if op == "arm" {
					s.RunFor(100 * Microsecond) // let the arm flush, then stop it
					continue
				}
				s.Drain()
			}
		}
		ts := s.TimerStats()
		if want := uint64(3 * rounds); ts.Stale != want {
			t.Errorf("backend %d: stale=%d, want %d", backend, ts.Stale, want)
		}
		if live != rounds {
			t.Errorf("backend %d: %d live firings, want %d", backend, live, rounds)
		}
		if backend == TimerBackendWheel && ts.Fired != ts.Stale+uint64(live) {
			t.Errorf("wheel fired=%d, want stale+live=%d", ts.Fired, ts.Stale+uint64(live))
		}
	}
}
