package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pdesPair builds a control-plane simulator with PDES enabled and two
// one-core machines (two domains).
func pdesPair(workers int) (*Simulator, *Machine, *Machine) {
	s := New(1)
	s.EnablePDES(workers)
	a := NewMachine(s, "a", 1, 1, 1_000_000_000)
	b := NewMachine(s, "b", 1, 1, 1_000_000_000)
	return s, a, b
}

func TestPDESMachinesGetOwnDomains(t *testing.T) {
	s, a, b := pdesPair(2)
	if a.Sim() == s || b.Sim() == s || a.Sim() == b.Sim() {
		t.Fatal("PDES machines must each live in their own domain shard")
	}
	if !s.PDESEnabled() {
		t.Fatal("PDESEnabled() = false on the control plane")
	}
	if a.Sim().PDESEnabled() {
		t.Fatal("PDESEnabled() = true on a domain shard")
	}
}

func TestPDESDomainEventsAndClocks(t *testing.T) {
	s, a, b := pdesPair(2)
	var ranA, ranB Time
	a.Sim().At(10*Microsecond, func() { ranA = a.Sim().Now() })
	b.Sim().At(20*Microsecond, func() { ranB = b.Sim().Now() })
	s.RunUntil(Millisecond)
	if ranA != 10*Microsecond || ranB != 20*Microsecond {
		t.Fatalf("domain events ran at %v/%v, want 10µs/20µs", ranA, ranB)
	}
	if s.Now() != Millisecond || a.Sim().Now() != Millisecond || b.Sim().Now() != Millisecond {
		t.Fatalf("clocks = %v/%v/%v, want all at 1ms", s.Now(), a.Sim().Now(), b.Sim().Now())
	}
	if s.EventsRun() != 2 {
		t.Fatalf("EventsRun = %d, want 2 (summed across domains)", s.EventsRun())
	}
}

// TestPDESControlRunsAtBarrier pins the barrier protocol: a control-plane
// event splits windows, runs with every domain clock advanced to its time,
// and precedes same-time domain events.
func TestPDESControlRunsAtBarrier(t *testing.T) {
	s, a, b := pdesPair(1)
	s.RegisterLookahead(Microsecond)
	var order []string
	a.Sim().At(10*Microsecond, func() { order = append(order, "a@10") })
	s.At(20*Microsecond, func() {
		if got := b.Sim().Now(); got != 20*Microsecond {
			t.Errorf("domain clock at control time = %v, want 20µs", got)
		}
		order = append(order, "ctrl@20")
	})
	b.Sim().At(20*Microsecond, func() { order = append(order, "b@20") })
	a.Sim().At(30*Microsecond, func() { order = append(order, "a@30") })
	s.RunUntil(Millisecond)
	want := "[a@10 ctrl@20 b@20 a@30]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("execution order %v, want %v", got, want)
	}
	barriers, horizon, doms := s.PDESStats()
	if barriers == 0 || horizon != Microsecond || len(doms) != 2 {
		t.Fatalf("PDESStats = %d barriers, %v horizon, %d domains", barriers, horizon, len(doms))
	}
}

// TestPDESBarrierFlushDelivery models a cross-domain channel by hand: a
// mailbox written by domain a's events and flushed into domain b at
// barriers, with the registered lookahead keeping the delivery outside the
// sending window.
func TestPDESBarrierFlushDelivery(t *testing.T) {
	const la = 5 * Microsecond
	for _, workers := range []int{1, 2} {
		s, a, b := pdesPair(workers)
		s.RegisterLookahead(la)
		type entry struct {
			at  Time
			val int
		}
		var mbox []entry
		var got []entry
		s.RegisterBarrierFlush(func() {
			for _, e := range mbox {
				e := e
				b.Sim().At(e.at, func() { got = append(got, entry{b.Sim().Now(), e.val}) })
			}
			mbox = mbox[:0]
		})
		for i := 0; i < 5; i++ {
			i := i
			at := Time(i+1) * 7 * Microsecond
			a.Sim().At(at, func() {
				mbox = append(mbox, entry{at: a.Sim().Now() + la, val: i})
			})
		}
		s.RunUntil(Millisecond)
		if len(got) != 5 {
			t.Fatalf("workers=%d: delivered %d cross-domain messages, want 5", workers, len(got))
		}
		for i, e := range got {
			if e.val != i || e.at != Time(i+1)*7*Microsecond+la {
				t.Fatalf("workers=%d: delivery %d = %+v", workers, i, e)
			}
		}
	}
}

// TestPDESWorkerCountInvariance runs an RNG-consuming workload per domain
// and checks the draws are identical under 1 and 2 workers: domain streams
// are seeded at machine creation, never by execution interleaving.
func TestPDESWorkerCountInvariance(t *testing.T) {
	run := func(workers int) string {
		s := New(99)
		s.EnablePDES(workers)
		machines := make([]*Machine, 4)
		for i := range machines {
			machines[i] = NewMachine(s, fmt.Sprintf("m%d", i), 1, 1, 1_000_000_000)
		}
		draws := make([][]int64, len(machines))
		var mu sync.Mutex
		for i, m := range machines {
			i, m := i, m
			for k := 0; k < 8; k++ {
				m.Sim().At(Time(k+1)*Microsecond, func() {
					v := m.Sim().Rand().Int63()
					mu.Lock()
					draws[i] = append(draws[i], v)
					mu.Unlock()
				})
			}
		}
		s.RunUntil(Millisecond)
		return fmt.Sprint(draws)
	}
	want := run(1)
	for _, workers := range []int{2, 3} {
		if got := run(workers); got != want {
			t.Fatalf("per-domain RNG draws differ between 1 and %d workers:\n%s\nvs\n%s", workers, want, got)
		}
	}
}

func TestPDESIdleJumpSkipsGaps(t *testing.T) {
	s, a, _ := pdesPair(1)
	s.RegisterLookahead(Microsecond)
	// Two events a full second apart: the window start jumps to the second
	// event instead of crawling there one lookahead at a time.
	a.Sim().At(Microsecond, func() {})
	a.Sim().At(Second, func() {})
	s.RunUntil(2 * Second)
	barriers, _, _ := s.PDESStats()
	if barriers > 10 {
		t.Fatalf("%d barriers for two events: idle jump is not working", barriers)
	}
}

func TestPDESDrain(t *testing.T) {
	s, a, b := pdesPair(2)
	// With no registered lookahead the two domains share one unbounded
	// window, so their events run on concurrent workers: count atomically.
	var ran atomic.Int32
	a.Sim().At(Microsecond, func() { ran.Add(1) })
	b.Sim().At(2*Second, func() { ran.Add(1) })
	if s.Idle() {
		t.Fatal("Idle with domain events pending")
	}
	s.Drain()
	if ran.Load() != 2 {
		t.Fatalf("Drain ran %d events, want 2", ran.Load())
	}
	if !s.Idle() {
		t.Fatal("not Idle after Drain")
	}
}

func TestPDESLookaheadRegistration(t *testing.T) {
	s, _, _ := pdesPair(1)
	s.RegisterLookahead(5 * Microsecond)
	s.RegisterLookahead(2 * Microsecond) // minimum wins
	s.RegisterLookahead(3 * Microsecond) // ignored: larger than current min
	if _, horizon, _ := s.PDESStats(); horizon != 2*Microsecond {
		t.Fatalf("horizon = %v, want 2µs", horizon)
	}
	s.RegisterLookahead(0) // clamped to 1ns, never 0 (a 0 horizon deadlocks)
	if _, horizon, _ := s.PDESStats(); horizon != Nanosecond {
		t.Fatalf("horizon after 0 registration = %v, want 1ns", horizon)
	}
}

func TestPDESGuards(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := New(1)
	NewMachine(s, "m", 1, 1, 1_000_000_000)
	expectPanic("EnablePDES after machines", func() { s.EnablePDES(2) })

	s2, a, _ := pdesPair(2)
	expectPanic("EnablePDES twice", func() { s2.EnablePDES(2) })
	expectPanic("Step on PDES control plane", func() { s2.Step() })
	expectPanic("NewMachine on a shard", func() {
		NewMachine(a.Sim(), "nested", 1, 1, 1_000_000_000)
	})

	// A domain event must not schedule on the control plane during a
	// parallel window, whichever goroutine claimed its domain: the
	// coordinator's own goroutine runs domains too.
	s3, a3, b3 := pdesPair(2)
	var panicked atomic.Int32
	for _, m := range []*Machine{a3, b3} {
		m.Sim().At(Microsecond, func() {
			defer func() {
				if recover() != nil {
					panicked.Add(1)
				}
			}()
			s3.At(Millisecond, func() {})
		})
	}
	s3.RunUntil(Millisecond)
	if got := panicked.Load(); got != 2 {
		t.Fatalf("control-plane At inside a window panicked in %d of 2 domains", got)
	}
}

// pdesRing builds n one-core machines linked in a ring by hand-made
// cross-domain channels with lookahead la. Every domain starts tokens
// that hop to the next domain, la plus an RNG-drawn delay later, until
// each has made hops hops. It returns the control plane and a digest
// function that reports per-domain event counts and clocks.
func pdesRing(workers, n, hops int, la Time) (*Simulator, func() string) {
	s := New(7)
	s.EnablePDES(workers)
	s.RegisterLookahead(la)
	ms := make([]*Machine, n)
	for i := range ms {
		ms[i] = NewMachine(s, fmt.Sprintf("r%d", i), 1, 1, 1_000_000_000)
	}
	type token struct {
		at   Time
		left int
	}
	// mbox[i] is written only by domain i-1's events and drained into
	// domain i at barriers.
	mbox := make([][]token, n)
	var hop func(i int, tk token)
	hop = func(i int, tk token) {
		d := ms[i].Sim()
		d.At(tk.at, func() {
			if tk.left == 0 {
				return
			}
			j := (i + 1) % n
			at := d.Now() + la + Time(d.Rand().Intn(3))*Nanosecond
			mbox[j] = append(mbox[j], token{at: at, left: tk.left - 1})
		})
	}
	s.RegisterBarrierFlush(func() {
		for j := range mbox {
			for _, tk := range mbox[j] {
				hop(j, tk)
			}
			mbox[j] = mbox[j][:0]
		}
	})
	for i := range ms {
		for k := 0; k < 3; k++ {
			hop(i, token{at: Time(k+1) * Nanosecond, left: hops})
		}
	}
	digest := func() string {
		_, _, doms := s.PDESStats()
		out := fmt.Sprint(doms)
		for _, m := range ms {
			out += fmt.Sprintf(" %s@%v", m.Name, m.Sim().Now())
		}
		return out
	}
	return s, digest
}

// poolGoroutines counts the live pdesPool goroutines in a dump of every
// goroutine's stack.
func poolGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by neat/internal/sim.newPDESPool"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestPDESPoolStopsWorkers: the pool goroutines run while a window
// executes and are gone once RunUntil or Drain returns.
func TestPDESPoolStopsWorkers(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, drain := range []bool{false, true} {
			s, _ := pdesRing(workers, 4, 50, Microsecond)
			var during atomic.Int32
			s.pdes.domains[0].At(Nanosecond, func() { during.Store(int32(poolGoroutines())) })
			if drain {
				s.Drain()
			} else {
				s.RunUntil(Millisecond)
			}
			if got := int(during.Load()); got < workers-1 {
				t.Fatalf("workers=%d drain=%v: %d pool goroutines during a window, want %d",
					workers, drain, got, workers-1)
			}
			// A pool goroutine may still be unwinding after stop returns.
			n := poolGoroutines()
			for deadline := time.Now().Add(2 * time.Second); n > 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				n = poolGoroutines()
			}
			if n > 0 {
				t.Fatalf("workers=%d drain=%v: %d pool goroutines left after the run", workers, drain, n)
			}
		}
	}
}

// TestPDESSingleProcProgress: with one P, idle participants must yield to
// the Go scheduler, or every window waits for preemption. Results match
// the 1-worker run.
func TestPDESSingleProcProgress(t *testing.T) {
	const la = Microsecond
	s1, digest1 := pdesRing(1, 4, 2000, la)
	s1.RunUntil(5 * Millisecond)
	want := digest1()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	done := make(chan string, 1)
	go func() {
		s4, digest4 := pdesRing(4, 4, 2000, la)
		s4.RunUntil(5 * Millisecond)
		done <- digest4()
	}()
	select {
	case got := <-done:
		if got != want {
			t.Fatalf("4 workers on one P:\n%s\nwant (1 worker):\n%s", got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("4 workers on one P made no progress in 30s: idle participants never yield")
	}
}

// TestPDESMoreWorkersThanDomains: surplus workers are clamped away and the
// run matches the 1-worker run, under RunUntil and Drain.
func TestPDESMoreWorkersThanDomains(t *testing.T) {
	for _, drain := range []bool{false, true} {
		run := func(workers int) string {
			s, digest := pdesRing(workers, 3, 100, Microsecond)
			if drain {
				s.Drain()
			} else {
				s.RunUntil(Millisecond)
			}
			return digest()
		}
		if want, got := run(1), run(8); got != want {
			t.Fatalf("drain=%v: 8 workers on 3 domains:\n%s\nwant (1 worker):\n%s", drain, got, want)
		}
	}
}

// TestPDESStatsOffMode: the sequential mode reports no PDES stats, so
// metric emission stays byte-identical to pre-PDES builds.
func TestPDESStatsOffMode(t *testing.T) {
	s := New(1)
	if _, _, doms := s.PDESStats(); doms != nil {
		t.Fatal("PDESStats reported domains without EnablePDES")
	}
	s.RegisterLookahead(Microsecond)  // no-op, must not panic
	s.RegisterBarrierFlush(func() {}) // no-op, must not panic
}
