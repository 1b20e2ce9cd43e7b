package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// Property test: under a seeded random workload of arm / stop / re-arm
// operations — including reactions taken from inside timer fires — the
// hierarchical timer wheel delivers exactly the same firing sequence as the
// reference per-event scheduler (TimerBackendEvent, the calendar-queue path
// every release before the wheel used), and charges the process exactly the
// same dispatches, halts and cycles. Same-tick ordering by (deadline,
// arm-seq) is covered implicitly: any divergence reorders the trace.

type twArm struct {
	id    int
	delay Time
}

type twStop struct{ id int }

// timerTrace runs one backend over the script and returns the sequence of
// timer firings as "id@time" strings, plus the process's statistics. The
// reaction RNG draws in fire order, so a single divergence amplifies into a
// visibly different trace. Wakes and halts are charged, so a backend that
// woke the process for a cancelled timer would show in the statistics even
// with an identical trace.
func timerTrace(backend TimerBackend, script []Message, reseed int64) ([]string, ProcStats) {
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
			ctx.StopTimer(&timers[op.id])
		case int:
			trace = append(trace, fmt.Sprintf("%d@%d", op, s.Now()))
			switch rng.Intn(4) {
			case 0: // re-arm self, short horizon (level 0/1)
				ctx.Retimer(&timers[op], Time(rng.Int63n(int64(40*Millisecond))), op)
			case 1: // arm a sibling, long horizon (level 2 / far heap)
				j := rng.Intn(len(timers))
				ctx.Retimer(&timers[j], Time(rng.Int63n(int64(7200*Second))), j)
			case 2: // stop a sibling (possibly not armed)
				ctx.StopTimer(&timers[rng.Intn(len(timers))])
			}
		}
	}), ProcConfig{WakeCycles: 50, HaltCycles: 30})
	for i, op := range script {
		op := op
		s.At(Time(i)*50*Microsecond, func() { p.Deliver(op) })
	}
	s.RunUntil(30 * Second)
	return trace, p.Stats()
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
		wheel, wst := timerTrace(TimerBackendWheel, script, seed)
		ref, rst := timerTrace(TimerBackendEvent, script, seed)
		if wst.Dispatches != rst.Dispatches || wst.Halts != rst.Halts || wst.TotalCharged != rst.TotalCharged {
			t.Fatalf("seed %d: charges differ: wheel dispatches/halts/cycles=%d/%d/%d ref=%d/%d/%d",
				seed, wst.Dispatches, wst.Halts, wst.TotalCharged, rst.Dispatches, rst.Halts, rst.TotalCharged)
		}
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
// to zero but never exactly reaches it. The cancellations cover all three
// ways an arming leaves: a tombstone in an L0 heap, a swap-remove from an
// L1 slot, and a skip at the flush.
func TestTimerArmStopZeroAlloc(t *testing.T) {
	const period = Time(1 << 21) // ~2.1 ms: half an L0 wrap, exact slot multiple
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	// 0..3 periodic; 4..7 cancelled while keyed in an L0 heap (tombstones);
	// 8..11 cancelled while in an L1 slot (swap-removed); 12..15 armed and
	// stopped in one dispatch (skipped at the flush).
	var timers [16]Timer
	p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(10)
		if msg == Message("kick") {
			for i := 0; i < 4; i++ {
				ctx.Retimer(&timers[i], Time(i+1)*(period/8), i)
			}
			return
		}
		// Timer fire: the tcpeng per-segment pattern — re-arm the long-lived
		// timer and re-arm helpers that never get to fire, each re-arm
		// cancelling the previous arming wherever it sits.
		i := msg.(int)
		ctx.Retimer(&timers[i], period, i)
		ctx.Retimer(&timers[4+i], period*3/2, 4+i)
		ctx.Retimer(&timers[8+i], 3*period, 8+i)
		ctx.Retimer(&timers[12+i], period/2, 12+i)
		ctx.StopTimer(&timers[12+i])
	}), ProcConfig{})
	p.Deliver("kick")
	// Warm up over one full L1 wrap (~4.3 s), so every L1 slot the
	// swap-removed arms land in has been visited once.
	cursor := Time(0)
	for cursor < Time(twSlots*twSlots)<<bucketShift+64*period {
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
	if ts := s.TimerStats(); ts.Pending != 12 || ts.Stale != 0 || ts.Cancelled == 0 {
		t.Fatalf("stats %+v: want 12 live timers resident, cancellations counted, none stale", ts)
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
					ctx.StopTimer(&timers[i]) // stopped before the flush
				}
			}
			if len(op) == 2 {
				ctx.StopTimer(&timers[3]) // stops a timer armed by an earlier message
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

// TestTimerStatsStale checks the split between cancelled and stale timer
// firings on both backends. A cancellation made before the deadline —
// stopped before the flush, stopped while armed, or superseded by a re-arm
// — counts once as Cancelled and never reaches dispatch, so Stale stays 0.
// A firing that goes stale inside a busy inbox, queued behind the message
// that stops its timer, still counts as Stale.
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
				ctx.StopTimer(&tm)
			case "arm":
				ctx.Retimer(&tm, Millisecond, "fire")
			case "stop": // cancelled while armed
				ctx.StopTimer(&tm)
			case "rearm": // the first arming is superseded
				ctx.Retimer(&tm, Millisecond, "fire")
				ctx.Retimer(&tm, 2*Millisecond, "fire")
			case "busy": // 2 ms of work: arrivals meanwhile queue in the inbox
				ctx.Charge(2_000_000)
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
		if ts.Stale != 0 || ts.Cancelled != 3*rounds {
			t.Errorf("backend %d: stale=%d cancelled=%d, want 0 and %d", backend, ts.Stale, ts.Cancelled, 3*rounds)
		}
		if live != rounds {
			t.Errorf("backend %d: %d live firings, want %d", backend, live, rounds)
		}
		if backend == TimerBackendWheel && ts.Fired != uint64(live) {
			t.Errorf("wheel fired=%d, want only the %d live firings", ts.Fired, live)
		}

		// The timer fires at ~1.1 ms while "busy" runs; the "stop" delivered
		// at ~0.5 ms is ahead of the firing in the inbox and handled first.
		p.Deliver("arm")
		s.RunFor(100 * Microsecond)
		p.Deliver("busy")
		s.At(s.Now()+400*Microsecond, func() { p.Deliver("stop") })
		s.Drain()
		ts = s.TimerStats()
		if ts.Stale != 1 || live != rounds {
			t.Errorf("backend %d: stale=%d live=%d after a firing queued behind its stop, want 1 and %d",
				backend, ts.Stale, live, rounds)
		}
	}
}

// TestTimerCancelLeavesWheel checks eager cancellation at every residence:
// a stop takes the entry out of Pending at once — a tombstone in an L0
// heap, a swap-remove from an L1 or L2 slot, a tombstone in the overflow
// heap — a re-arm loop keeps exactly one entry per timer resident, and
// nothing is delivered after a stop, not even past the deadlines.
func TestTimerCancelLeavesWheel(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	delays := []Time{Millisecond, Second, 600 * Second, 3 * 3600 * Second}
	levels := []uint8{0, 1, 2, twFar}
	timers := make([]Timer, len(delays))
	tombs := make([]int, len(delays)) // tombstones left by each timer's stops
	control := uint64(0)
	p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(10)
		switch op := msg.(type) {
		case twArm:
			ctx.Retimer(&timers[op.id], op.delay, op.id)
		case twStop:
			dead := s.tw.dead
			ctx.StopTimer(&timers[op.id])
			tombs[op.id] += s.tw.dead - dead
		case func(*Context):
			op(ctx)
		case string: // the sentinel's firing
		default:
			t.Fatalf("delivered %v after its timer was stopped", msg)
		}
	}), ProcConfig{WakeCycles: 50, HaltCycles: 30})
	send := func(msg Message) {
		control++
		p.Deliver(msg)
		s.RunFor(10 * Microsecond)
	}
	armAll := func() {
		for i, d := range delays {
			send(twArm{id: i, delay: d})
		}
	}

	armAll()
	for i := range timers {
		if got := s.tw.ents.items[timers[i].ent-1].level; got != levels[i] {
			t.Fatalf("timer %d resident at level %d, want %d", i, got, levels[i])
		}
	}
	// Stop the latest first: the wheel position settles onto the earliest
	// resident entry, so the L0 timer must stay armed to keep the others
	// at their levels.
	for i := len(timers) - 1; i >= 0; i-- {
		send(twStop{id: i})
		if ts := s.TimerStats(); ts.Pending != i || ts.Cancelled != uint64(len(timers)-i) {
			t.Fatalf("after stopping timer %d (level %d): %+v, want pending %d", i, levels[i], ts, i)
		}
		if timers[i].ent != 0 {
			t.Fatalf("stopped timer %d still records a wheel entry", i)
		}
	}
	// Heap-resident keys (L0, overflow) leave tombstones; L1/L2 keys leave.
	if want := []int{1, 0, 0, 1}; !reflect.DeepEqual(tombs, want) {
		t.Fatalf("tombstones per stop %v, want %v", tombs, want)
	}

	armAll()
	for round := 0; round < 50; round++ {
		armAll() // every re-arm cancels the resident arming first
		if ts := s.TimerStats(); ts.Pending != len(timers) {
			t.Fatalf("round %d: pending=%d, want %d", round, ts.Pending, len(timers))
		}
	}
	for i := range timers {
		send(twStop{id: i})
	}
	// A live sentinel beyond every deadline carries the wheel past the
	// tombstones, which are discarded on the way.
	var sentinel Timer
	p.Deliver(func(ctx *Context) { ctx.Retimer(&sentinel, 4*3600*Second, "sentinel") })
	s.RunUntil(5 * 3600 * Second)

	ts := s.TimerStats()
	if ts.Pending != 0 || ts.Fired != 1 || ts.Stale != 0 || !sentinel.Fired() {
		t.Fatalf("after stopping everything and passing every deadline: %+v, want only the sentinel fired", ts)
	}
	if want := uint64(len(timers) * 52); ts.Cancelled != want {
		t.Fatalf("cancelled=%d, want %d", ts.Cancelled, want)
	}
	if st := p.Stats(); st.Messages != control+2 {
		t.Fatalf("%d messages handled, want the %d control messages and the sentinel's arm and firing only",
			st.Messages, control)
	}
	if s.tw.dead != 0 || len(s.tw.ents.free) != len(s.tw.ents.items) {
		t.Fatalf("tombstones left behind: dead=%d, %d of %d slab slots free",
			s.tw.dead, len(s.tw.ents.free), len(s.tw.ents.items))
	}
}

// TestTimerFootprint pins the per-timer memory: a Timer is embedded in
// every connection (five per TCP PCB), and a wheel entry exists per armed
// timer, so growing either shows up directly in bytes per connection at a
// million connections.
func TestTimerFootprint(t *testing.T) {
	if n := unsafe.Sizeof(Timer{}); n != 16 {
		t.Errorf("sizeof(Timer) = %d, want 16", n)
	}
	if n := unsafe.Sizeof(twEntry{}); n != 40 {
		t.Errorf("sizeof(twEntry) = %d, want 40", n)
	}
}
