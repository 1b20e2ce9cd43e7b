// Package sim implements the deterministic discrete-event machine model that
// the NEaT reproduction runs on. It stands in for the paper's physical
// testbed (NewtOS on a 12-core AMD Opteron and an 8-core/16-thread Xeon):
// simulated machines expose cores and hardware threads, processes pinned to
// threads consume cycles, and all cross-process communication is message
// passing with explicit cost, exactly mirroring the paper's execution model.
//
// The simulation is single-threaded and fully deterministic: events are
// ordered by (time, sequence) — wire arrivals by a canonical stamp ahead
// of local sequence numbers — and all randomness flows from one seeded
// source. Running the same experiment twice yields identical results.
// An opt-in conservative parallel mode (EnablePDES; see pdes.go) splits the
// run into per-machine event-queue domains advanced in lookahead-bounded
// windows. Its results are reproducible across any worker count; they
// match the sequential mode wherever the run draws no randomness, since
// per-domain RNG streams replace the global one (see pdes.go).
//
// The event queue is a calendar queue (timing wheel): near-future events
// live in fixed time buckets whose storage is recycled run after run, and
// far-future events (retransmission timeouts, TIME_WAIT expiry) fall back to
// a far heap until the wheel horizon reaches them. Each bucket is itself a
// binary min-heap of pointer-free (at, seq) keys into a slab of event
// payloads, so finding the earliest event is O(1) and removing it O(log n)
// however crowded its bucket is. The hottest schedule sites use closure-free
// event kinds so that steady-state scheduling performs no allocation at all.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Time is a simulated timestamp or duration in nanoseconds since the start
// of the simulation.
type Time int64

// Common durations, usable as Time values.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a standard library duration to simulated Time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// EventHandler receives closure-free scheduled events. Objects on the hot
// path (links, NICs) implement it once and pass a tag identifying the
// pending work, so scheduling does not allocate.
type EventHandler interface {
	OnEvent(tag uint64)
}

type evKind uint8

const (
	evFunc         evKind = iota // run fn()
	evDispatch                   // run proc.runDispatch()
	evDeliver                    // proc.Deliver(msg)
	evHandler                    // h.OnEvent(tag)
	evDeliverBatch               // deliver every message of a msgBatch to its destination
)

// event is the payload of one queue entry. The kind discriminates which
// fields are live; keeping them unioned in one flat struct lets slab slots be
// reused without any per-event allocation. Its order lives in the key that
// points at it.
type event struct {
	kind evKind
	fn   func()
	proc *Proc
	msg  Message
	h    EventHandler
	tag  uint64
}

// Calendar-queue geometry: 1024 buckets of 4096 ns each give a ~4.2 ms
// horizon, comfortably wider than the typical inter-event gap (cycle
// charges, wire latencies, IPC wakeups are all well under a millisecond)
// while keeping the wheel small enough to live inline in the Simulator.
const (
	wheelBits    = 10
	wheelBuckets = 1 << wheelBits
	wheelMask    = wheelBuckets - 1
	bucketShift  = 12 // 4096 ns per bucket
)

// eventQueue is a calendar queue. Events whose bucket index falls within
// [cur, cur+wheelBuckets) live in the wheel; later events wait in the far
// heap and migrate in as cur advances. Invariant: every far event's bucket
// index is >= cur, and at any moment the earliest event overall is in the
// wheel whenever the wheel is non-empty.
//
// Every bucket and the far heap are binary min-heaps of keys, so the
// earliest event of a bucket is its root: peeking is O(1) and a pop is
// O(log n) in the bucket's occupancy. Event payloads are written once into
// the slab on push and read once on take; heap sifts move keys only.
type eventQueue struct {
	// wheel bucket storage is recycled: bucket slices keep their capacity
	// after being drained.
	wheel [wheelBuckets]keyHeap
	// occ is an occupancy bitmap over wheel slots for O(1) next-bucket
	// scans.
	occ   [wheelBuckets / 64]uint64
	cur   int64 // monotonic bucket counter: wheel horizon is [cur, cur+wheelBuckets)
	count int   // events resident in the wheel
	far   keyHeap
	slab  slab[event]
}

func (q *eventQueue) empty() bool { return q.count == 0 && len(q.far) == 0 }

func (q *eventQueue) len() int { return q.count + len(q.far) }

func (q *eventQueue) push(at Time, seq uint64, e event) {
	k := key{at: at, seq: seq, idx: q.slab.put(e)}
	if int64(at)>>bucketShift >= q.cur+wheelBuckets {
		q.far.push(k)
		return
	}
	q.wheelInsert(k)
}

func (q *eventQueue) wheelInsert(k key) {
	bi := int64(k.at) >> bucketShift
	if bi < q.cur {
		// A bounded pop may advance cur past bucket(now) without running
		// the event it peeked at. Insertions before cur park in the first
		// bucket: its heap order still pops them first, and cur cannot
		// advance past a non-empty current bucket.
		bi = q.cur
	}
	slot := bi & wheelMask
	q.wheel[slot].push(k)
	q.occ[slot>>6] |= 1 << uint(slot&63)
	q.count++
}

// migrate pulls far-heap events that now fall inside the wheel horizon.
// It must run whenever cur advances, or a later wheel insertion could be
// popped ahead of an earlier far event.
func (q *eventQueue) migrate() {
	for len(q.far) > 0 && int64(q.far[0].at)>>bucketShift < q.cur+wheelBuckets {
		q.wheelInsert(q.far.pop())
	}
}

// firstSlot returns the first occupied wheel slot at or after cur,
// wrapping. Only valid when count > 0.
func (q *eventQueue) firstSlot() int64 {
	start := q.cur & wheelMask
	w := start >> 6
	if b := q.occ[w] &^ ((1 << uint(start&63)) - 1); b != 0 {
		return w<<6 | int64(bits.TrailingZeros64(b))
	}
	for i := int64(1); i <= int64(len(q.occ)); i++ {
		wi := (w + i) & (int64(len(q.occ)) - 1)
		if q.occ[wi] != 0 {
			return wi<<6 | int64(bits.TrailingZeros64(q.occ[wi]))
		}
	}
	panic("sim: occupancy bitmap empty with count > 0")
}

// peekPos advances the horizon to the first occupied bucket and returns that
// slot and the (at, seq) key of the earliest event without removing it. The
// horizon advance and far-heap migration it performs are order-neutral, so a
// peek whose event is not taken (the merged pop chose the timer wheel, or a
// bounded run stopped) leaves behavior unchanged.
func (q *eventQueue) peekPos() (slot int64, at Time, seq uint64, ok bool) {
	if q.count == 0 {
		if len(q.far) == 0 {
			return 0, 0, 0, false
		}
		// The wheel drained with far events pending: jump the horizon to
		// the earliest far bucket and migrate.
		q.cur = int64(q.far[0].at) >> bucketShift
		q.migrate()
	}
	slot = q.firstSlot()
	// Advance cur to the bucket index the slot represents, then migrate:
	// far events that the advance brought inside the horizon land in
	// buckets strictly after this one, preserving order.
	q.cur += (slot - q.cur) & wheelMask
	q.migrate()
	k := &q.wheel[slot][0]
	return slot, k.at, k.seq, true
}

// take removes the earliest event of the bucket a peekPos located and
// returns its time and payload, releasing its slab slot for reuse.
func (q *eventQueue) take(slot int64) (Time, event) {
	k := q.wheel[slot].pop()
	if len(q.wheel[slot]) == 0 {
		q.occ[slot>>6] &^= 1 << uint(slot&63)
	}
	q.count--
	return k.at, q.slab.take(k.idx)
}

// pop removes the earliest event and returns its time and payload. If
// bounded, events after limit are left in place and ok is false.
func (q *eventQueue) pop(limit Time, bounded bool) (at Time, e event, ok bool) {
	slot, at, _, ok := q.peekPos()
	if !ok || (bounded && at > limit) {
		return 0, event{}, false
	}
	at, e = q.take(slot)
	return at, e, true
}

// peekTime returns the timestamp of the earliest pending event without
// mutating the queue. The wheel invariant (the earliest event overall is in
// the wheel whenever the wheel is non-empty, and earlier buckets hold
// strictly earlier times than later ones) makes the first occupied bucket's
// root the global minimum. The PDES coordinator uses this at every barrier
// to pick the next window start.
func (q *eventQueue) peekTime() (Time, bool) {
	if q.count == 0 {
		if len(q.far) == 0 {
			return 0, false
		}
		return q.far[0].at, true
	}
	return q.wheel[q.firstSlot()][0].at, true
}

// Tracer observes the message path of a simulation. It is the hook behind
// the opt-in observability layer: when a tracer is installed, every process
// dispatch reports per-message queueing and processing times, and
// non-process hardware hops (wire serialization, NIC RX queues) report
// spans. With no tracer installed (the default) every trace point is a
// single nil check — zero allocation, zero behavioural impact.
//
// A Tracer is per-Simulator state, never global: parallel experiment
// sweeps run one simulator (and one tracer) per sweep point, which keeps
// concurrent runs byte-identical to sequential ones.
type Tracer interface {
	// OnMessage reports one handled message on process p: it arrived in the
	// inbox at arrivedAt, its handler started at start (queueing time is
	// start-arrivedAt) and finished at end (processing time is end-start).
	OnMessage(p *Proc, msg Message, arrivedAt, start, end Time)
	// OnSpan reports one traversal of a non-process hop (wire direction,
	// NIC RX queue) identified by hop: time spent queued behind other work
	// and time spent being processed/serialized.
	OnSpan(hop string, queued, processed Time)
}

// Simulator owns the virtual clock and the event queue. All machines,
// processes, NICs and links of one experiment hang off a single Simulator.
type Simulator struct {
	now      Time
	q        eventQueue
	seq      uint64
	rng      *rand.Rand
	machines []*Machine
	procs    []*Proc

	// procsMu guards the procs registry: in PDES mode replica rebuilds
	// create processes from inside concurrent domain windows.
	procsMu sync.Mutex

	// PDES mode (see pdes.go). pdes is the shared coordinator state when
	// conservative parallel simulation is enabled; parent points from a
	// domain shard back to the control-plane simulator (nil on the root and
	// in the default sequential mode); domID indexes the shard.
	pdes   *pdesCoord
	parent *Simulator
	domID  int

	crashWatchers []func(*Proc, error)

	// channels numbers the channels created by NewChannelID (on the
	// control plane).
	channels atomic.Uint32

	// tracer is the installed observability hook, or nil (the default:
	// every trace point reduces to one nil check).
	tracer Tracer

	// batchFree recycles msgBatch carriers (and their message slices) so
	// steady-state batched delivery allocates nothing.
	batchFree []*msgBatch
	// tfFree recycles timerFire boxes between firing and dispatch for the
	// same reason. Boxes that die in flight (crash, drop injection) are
	// simply collected; the freelist only ever shrinks by reuse.
	tfFree []*timerFire

	// tw holds armed timers outside the event queue (see timerwheel.go);
	// timerBackend selects between it and the legacy per-event path.
	tw           timerWheel
	timerBackend TimerBackend

	// Stats
	eventsRun uint64
	// ipc holds the IPC ring instrumentation (see ipcstats.go); per-domain
	// in PDES mode, aggregated by IPCStats.
	ipc ipcCounters
}

// msgBatch carries the messages of one flush vector: one simulator event
// delivering to several inboxes. dsts is parallel to msgs and names each
// message's destination. The simulation is single-threaded, so a plain
// freelist suffices.
type msgBatch struct {
	msgs []Message
	dsts []*Proc
}

func (s *Simulator) getBatch() *msgBatch {
	if n := len(s.batchFree); n > 0 {
		b := s.batchFree[n-1]
		s.batchFree = s.batchFree[:n-1]
		return b
	}
	return &msgBatch{}
}

// New returns a Simulator whose randomness is derived from seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventsRun reports how many events have executed so far. On a PDES
// control-plane simulator it totals across all domains; call it only at a
// barrier (i.e. from driver code between Run calls).
func (s *Simulator) EventsRun() uint64 {
	n := s.eventsRun
	if s.pdes != nil && s.parent == nil {
		for _, d := range s.pdes.domains {
			n += d.eventsRun
		}
	}
	return n
}

// rootSim returns the control-plane simulator: s itself unless s is a PDES
// domain shard.
func (s *Simulator) rootSim() *Simulator {
	if s.parent != nil {
		return s.parent
	}
	return s
}

// SetTracer installs (or, with nil, removes) the observability hook.
// Install it before the simulation runs: messages already sitting in
// process inboxes at install time carry no arrival stamp, and their
// dispatch batches are skipped by the per-message trace.
func (s *Simulator) SetTracer(t Tracer) {
	s.tracer = t
	if s.pdes != nil && s.parent == nil {
		// Domains share the control plane's tracer. A tracer is shared
		// mutable state, so the coordinator serializes domain execution
		// (workers=1) whenever one is installed.
		for _, d := range s.pdes.domains {
			d.tracer = t
		}
	}
}

// Tracer returns the installed observability hook, or nil.
func (s *Simulator) Tracer() Tracer { return s.tracer }

// seqLocal is the order class of locally sequenced work. A key's seq is
// either a local sequence number with this bit set or, for wire arrivals,
// a canonical stamp below it (AtEventOrdered): at one instant every
// stamped arrival runs before any local event, in stamp order, whichever
// engine scheduled it and whenever it was scheduled.
const seqLocal = 1 << 63

// nextSeq stamps the next locally sequenced event or flushed timer run.
func (s *Simulator) nextSeq() uint64 {
	s.seq++
	return s.seq | seqLocal
}

// schedule clamps t to now, stamps the sequence number and enqueues.
func (s *Simulator) schedule(t Time, e event) {
	s.guardWindow()
	s.enqueue(t, s.nextSeq(), e)
}

// guardWindow panics if s is a PDES control plane and a window is running.
// Domain code must never schedule on the control plane while windows
// execute concurrently: the control queue and sequence counter are only
// touched at barriers. Cross-domain influence goes through the wire. The
// check runs before any control-plane state is touched, so concurrent
// offenders panic without racing on it.
func (s *Simulator) guardWindow() {
	if s.pdes != nil && s.parent == nil && s.pdes.inWindow.Load() {
		panic("sim: control-plane schedule during a parallel window")
	}
}

func (s *Simulator) enqueue(t Time, seq uint64, e event) {
	if t < s.now {
		t = s.now
	}
	s.q.push(t, seq, e)
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the model; it is clamped to "now" to keep the clock monotonic.
func (s *Simulator) At(t Time, fn func()) {
	s.schedule(t, event{kind: evFunc, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (s *Simulator) After(d Time, fn func()) { s.At(s.now+d, fn) }

// AtEvent schedules h.OnEvent(tag) at absolute time t without allocating.
func (s *Simulator) AtEvent(t Time, h EventHandler, tag uint64) {
	s.schedule(t, event{kind: evHandler, h: h, tag: tag})
}

// AfterEvent schedules h.OnEvent(tag) d nanoseconds from now.
func (s *Simulator) AfterEvent(d Time, h EventHandler, tag uint64) {
	s.AtEvent(s.now+d, h, tag)
}

// AtEventOrdered schedules h.OnEvent(tag) at absolute time t under a
// canonical stamp instead of the local sequence: it runs before every
// locally sequenced event of the same instant, and same-instant stamped
// events run in stamp order. A cross-domain channel (the wire) stamps each
// arrival from its own identity and counters, so the order of simultaneous
// arrivals does not depend on when, or on which engine, they were
// scheduled. Stamps must be unique and below 1<<63.
func (s *Simulator) AtEventOrdered(t Time, stamp uint64, h EventHandler, tag uint64) {
	if stamp&seqLocal != 0 {
		panic("sim: ordered-event stamp out of range")
	}
	s.guardWindow()
	s.enqueue(t, stamp, event{kind: evHandler, h: h, tag: tag})
}

// NewChannelID returns a fresh identifier for a channel that stamps its
// deliveries with AtEventOrdered. Identifiers are numbered per simulation,
// from the control plane in PDES mode, so a topology built in the same
// order gets the same identifiers on every engine.
func (s *Simulator) NewChannelID() uint32 { return s.rootSim().channels.Add(1) }

// DeliverAt delivers msg to p at absolute time t without allocating a
// closure. It is the scheduled-delivery primitive behind NIC interrupts
// and delayed IPC.
func (s *Simulator) DeliverAt(t Time, p *Proc, msg Message) {
	s.schedule(t, event{kind: evDeliver, proc: p, msg: msg})
}

// run executes one popped event.
func (s *Simulator) run(at Time, e event) {
	s.now = at
	s.eventsRun++
	switch e.kind {
	case evFunc:
		e.fn()
	case evDispatch:
		e.proc.runDispatch()
	case evDeliver:
		s.deliver(e.proc, e.msg)
	case evHandler:
		e.h.OnEvent(e.tag)
	case evDeliverBatch:
		b := e.msg.(*msgBatch)
		// A batch of N messages is N logical deliveries: count it as N
		// events so EventsRun (and everything reported from it) is
		// independent of how deliveries were grouped.
		s.eventsRun += uint64(len(b.msgs)) - 1
		// Deliveries land in slice order, exactly the order the sends
		// were buffered, whatever their targets.
		for i, m := range b.msgs {
			s.deliver(b.dsts[i], m)
			b.msgs[i] = nil
			b.dsts[i] = nil
		}
		b.msgs = b.msgs[:0]
		b.dsts = b.dsts[:0]
		s.batchFree = append(s.batchFree, b)
	}
}

// deliver hands one scheduled message to p. The legacy event backend boxes
// a timer firing when it is armed; if the timer was stopped or re-armed
// since, the box is discarded here, before it can wake p — the same
// outcome as a cancelled wheel entry, which never fires, so both backends
// charge the same cycles. A discarded firing is not counted as an event.
func (s *Simulator) deliver(p *Proc, m Message) {
	if tf, ok := m.(*timerFire); ok && tf.stale() {
		s.freeTimerFire(tf)
		s.tw.cancelled++
		s.eventsRun--
		return
	}
	p.Deliver(m)
}

// Idle reports whether no events remain. On a PDES control plane this
// inspects every domain queue (flushing cross-domain mailboxes first) and
// must only be called at a barrier.
func (s *Simulator) Idle() bool {
	if s.pdes != nil && s.parent == nil {
		if !s.idleLocal() {
			return false
		}
		s.pdes.flush()
		for _, d := range s.pdes.domains {
			if !d.idleLocal() {
				return false
			}
		}
		return true
	}
	return s.idleLocal()
}

// Step executes the next event, if any, and reports whether one ran.
// Not supported on a PDES control plane (there is no single next event);
// use RunUntil/RunFor/Drain there.
func (s *Simulator) Step() bool {
	if s.pdes != nil && s.parent == nil {
		panic("sim: Step is not supported in PDES mode; use RunUntil")
	}
	return s.stepNext(0, false)
}

// RunUntil executes events until the clock reaches t or the queue drains.
// The clock is left at t even if the queue drained earlier. On a PDES
// control plane this advances all domains in lookahead-bounded windows.
func (s *Simulator) RunUntil(t Time) {
	if s.pdes != nil && s.parent == nil {
		s.runPDES(t, false)
		return
	}
	for s.stepNext(t, true) {
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d.
func (s *Simulator) RunFor(d Time) { s.RunUntil(s.now + d) }

// Drain runs until no events remain. Experiments with self-sustaining load
// (timers that always re-arm) must use RunUntil instead.
func (s *Simulator) Drain() {
	if s.pdes != nil && s.parent == nil {
		s.runPDES(0, true)
		return
	}
	for s.Step() {
	}
}

// OnCrash registers fn to be called whenever any process crashes.
// The NEaT recovery manager uses this as its failure detector (the paper's
// microkernel notifies the recovery server of process faults the same way).
func (s *Simulator) OnCrash(fn func(*Proc, error)) {
	s.crashWatchers = append(s.crashWatchers, fn)
}

func (s *Simulator) notifyCrash(p *Proc, cause error) {
	for _, fn := range s.crashWatchers {
		fn(p, cause)
	}
}

// Machines returns all machines registered with the simulator. A PDES
// domain shard reports only its own machine; the control plane reports all.
func (s *Simulator) Machines() []*Machine { return s.machines }

// Procs returns all processes ever created, including dead ones. The
// registry lives on the control-plane simulator; in PDES mode call this only
// at a barrier.
func (s *Simulator) Procs() []*Proc { return s.rootSim().procs }

// addProc registers p with the control-plane simulator. Replica rebuilds can
// create processes from inside concurrent domain windows, hence the lock.
func (s *Simulator) addProc(p *Proc) {
	r := s.rootSim()
	r.procsMu.Lock()
	r.procs = append(r.procs, p)
	r.procsMu.Unlock()
}
