package sim

import "math/bits"

// Hierarchical timer wheel.
//
// Armed timers (TCP retransmission, delayed ACK, TIME_WAIT expiry, keepalive
// guards) used to be ordinary event-queue entries: one calendar-queue event
// per armed timer. At millions of connections that is millions of pending
// simulator events, almost all of which are stopped or re-armed before they
// fire. The wheel moves timers out of the event queue entirely: they live in
// a three-level hierarchy of slot arrays beside the queue, and the
// simulator's pop merges the two sources by (time, sequence), so a run is
// byte-identical to the per-event scheduling it replaced while the event
// queue's pending count stays independent of the number of armed timers.
//
// Determinism. Every arm records the (deadline, sequence) the legacy path
// would have stamped on its delivery event — a run of timer arms flushed by
// one dispatch to the same deadline shares one sequence number, exactly like
// a batched delivery — plus the arm's position within that run for
// same-(at, seq) ties. The merged pop compares the queue head and the wheel
// head lexicographically by (at, seq); within the wheel, entries order by
// (at, seq, ord). Slots hold pointer-free keys into an entry slab, and every
// level-0 slot is a binary min-heap of them, so the wheel head is the root of
// the current slot: O(1) to peek and O(log n) to pop however many entries
// share the slot. A popped entry is delivered through Proc.Deliver like any
// scheduled message, so drop injection, dead-process drops and trace stamps
// behave identically to the event path.
//
// Cancellation is eager: StopTimer and Retimer take the timer's entry out of
// the wheel, so only live timers are resident and only live firings reach
// Proc.Deliver — a cancelled timer never wakes its process. Each entry
// records where its key sits. A key in an unordered L1/L2 slot is
// swap-removed in O(1). A key inside a heap (an L0 slot or the overflow
// heap) cannot leave without a search, so its entry becomes a tombstone:
// the payload's references are dropped at once, and the key is discarded
// silently when it reaches the heap root — never counted as a firing or an
// event, never delivered. Pending counts live timers only.
//
// Geometry. Level 0 shares the calendar queue's 4096 ns bucket and spans
// ~4.2 ms; each higher level covers twSlots slots of the one below (L1
// ~4.3 s — every RTO and TIME_WAIT in practice — and L2 ~73 min). Entries
// beyond the L2 horizon wait in a small overflow heap. Cascades are lazy:
// a higher-level slot is scattered downward only when the wheel position
// crosses into it while searching for the next deadline.
const (
	twLevels   = 3
	twSlotBits = wheelBits // 1024 slots per level, matching the event queue
	twSlots    = 1 << twSlotBits
	twSlotMask = twSlots - 1
)

// twEntry is the payload of one armed timer; its key in the wheel carries
// the deadline and order. Entries live in a recycled slab, so arming in
// steady state allocates nothing. A resident entry is always its timer's
// current arming (cancellation removes it), so the firing generation is
// read from the timer when the entry pops. level, slot and pos locate the
// entry's key for cancellation; t is nil on a tombstone.
type twEntry struct {
	t     *Timer
	msg   Message
	proc  *Proc
	pos   uint32 // index of the key inside an unordered L1/L2 slot
	slot  uint16 // L1/L2 slot holding the key
	level uint8  // 0..2, or twFar for the overflow heap
}

// twFar is the level recorded for entries in the overflow heap.
const twFar = twLevels

type timerWheel struct {
	// slots hold keys; level-0 slots are heaps, higher levels unordered
	// (a cascade re-places every key anyway).
	slots  [twLevels][twSlots]keyHeap
	occ    [twLevels][twSlots / 64]uint64
	counts [twLevels]int // keys per level, tombstones included
	cur    int64         // monotonic L0 bucket counter; L0 horizon is [cur, cur+twSlots)
	far    keyHeap       // entries beyond the L2 horizon
	ents   slab[twEntry]
	dead   int // tombstones still keyed in an L0 slot or the overflow heap

	cascaded  uint64 // entries scattered down a level by lazy cascade
	fired     uint64 // live entries popped for delivery
	stale     uint64 // firings dropped at dispatch (either backend)
	cancelled uint64 // arms cancelled before their firing was scheduled
}

// pending counts live timers: resident keys minus tombstones.
func (w *timerWheel) pending() int {
	return w.counts[0] + w.counts[1] + w.counts[2] + len(w.far) - w.dead
}

func (w *timerWheel) empty() bool { return w.pending() == 0 }

// insert arms one entry for t and records it in t. seq is shared by every
// arm of one flushed run; ord, the arm's position within the run,
// disambiguates within it.
func (w *timerWheel) insert(at Time, seq uint64, ord uint32, t *Timer, msg Message, p *Proc) {
	idx := w.ents.put(twEntry{t: t, msg: msg, proc: p})
	t.ent = idx + 1
	w.place(key{at: at, seq: seq, ord: ord, idx: idx})
}

// place routes an entry to the innermost level whose horizon contains it.
// Entries whose bucket already passed park in the current L0 slot. Parking is
// the common case, not an edge: every merged pop peeks the wheel, which
// settles the position onto the earliest timer's slot, and the earlier queue
// events that run first keep arming shorter timers behind it. The slot's heap
// order pops parked entries first at O(log n), and the position never
// advances past a non-empty current slot.
func (w *timerWheel) place(k key) {
	b0 := int64(k.at) >> bucketShift
	if b0 < w.cur {
		b0 = w.cur
	}
	if b0-w.cur < twSlots {
		w.put(0, b0&twSlotMask, k)
		return
	}
	b1 := b0 >> twSlotBits
	if b1-w.cur>>twSlotBits < twSlots {
		w.put(1, b1&twSlotMask, k)
		return
	}
	b2 := b1 >> twSlotBits
	if b2-w.cur>>(2*twSlotBits) < twSlots {
		w.put(2, b2&twSlotMask, k)
		return
	}
	w.ents.items[k.idx].level = twFar
	w.far.push(k)
}

func (w *timerWheel) put(level int, slot int64, k key) {
	e := &w.ents.items[k.idx]
	e.level = uint8(level)
	if level == 0 {
		w.slots[0][slot].push(k)
	} else {
		e.slot = uint16(slot)
		e.pos = uint32(len(w.slots[level][slot]))
		w.slots[level][slot] = append(w.slots[level][slot], k)
	}
	w.occ[level][slot>>6] |= 1 << uint(slot&63)
	w.counts[level]++
}

// cancel takes t's resident entry out of the wheel. An L1/L2 key is
// swap-removed and its slab slot freed; a heap-resident key stays behind a
// tombstone until it reaches its heap's root.
func (w *timerWheel) cancel(t *Timer) {
	idx := t.ent - 1
	t.ent = 0
	e := &w.ents.items[idx]
	if e.t != t {
		panic("sim: timer stopped outside the domain that armed it")
	}
	w.cancelled++
	level := int(e.level)
	if level == 0 || level == twFar {
		*e = twEntry{level: e.level}
		w.dead++
		return
	}
	slot, pos := int64(e.slot), e.pos
	b := w.slots[level][slot]
	last := len(b) - 1
	b[pos] = b[last]
	w.ents.items[b[pos].idx].pos = pos
	w.slots[level][slot] = b[:last]
	if last == 0 {
		w.occ[level][slot>>6] &^= 1 << uint(slot&63)
	}
	w.counts[level]--
	w.ents.take(idx)
}

// firstSlot returns the first occupied slot of level at or after from,
// wrapping. Only valid when the level is non-empty.
func (w *timerWheel) firstSlot(level int, from int64) int64 {
	start := from & twSlotMask
	occ := &w.occ[level]
	wd := start >> 6
	if b := occ[wd] &^ ((1 << uint(start&63)) - 1); b != 0 {
		return wd<<6 | int64(bits.TrailingZeros64(b))
	}
	for i := int64(1); i <= int64(len(occ)); i++ {
		wi := (wd + i) & (int64(len(occ)) - 1)
		if occ[wi] != 0 {
			return wi<<6 | int64(bits.TrailingZeros64(occ[wi]))
		}
	}
	panic("sim: timer wheel occupancy bitmap empty with entries resident")
}

// cascade scatters one higher-level slot down through place. Runs when the
// wheel position enters the slot's range, so every entry lands at or after
// the current position. Higher levels hold no tombstones.
func (w *timerWheel) cascade(level int, slot int64) {
	b := w.slots[level][slot]
	if len(b) == 0 {
		return
	}
	w.slots[level][slot] = b[:0]
	w.occ[level][slot>>6] &^= 1 << uint(slot&63)
	w.counts[level] -= len(b)
	w.cascaded += uint64(len(b))
	for i := range b {
		w.place(b[i])
	}
}

// migrateFar pulls overflow entries that now fit the L2 horizon, discarding
// tombstones on the way.
func (w *timerWheel) migrateFar() {
	cur2 := w.cur >> (2 * twSlotBits)
	for len(w.far) > 0 && int64(w.far[0].at)>>(bucketShift+2*twSlotBits)-cur2 < twSlots {
		k := w.far.pop()
		if w.ents.items[k.idx].t == nil {
			w.ents.take(k.idx)
			w.dead--
			continue
		}
		w.place(k)
	}
}

// settle advances the wheel position — cascading higher-level slots as their
// boundaries are crossed — until the earliest resident key sits in the
// current L0 slot. Reports false when the wheel holds no key at all.
func (w *timerWheel) settle() bool {
	for {
		if w.counts[0] > 0 {
			slot := w.firstSlot(0, w.cur)
			d := (slot - w.cur) & twSlotMask
			boundary := (w.cur>>twSlotBits + 1) << twSlotBits
			if w.cur+d < boundary || (w.counts[1] == 0 && w.counts[2] == 0 && len(w.far) == 0) {
				// No cascade can produce an earlier entry: advance and stop.
				w.cur += d
				return true
			}
		} else if w.counts[1] == 0 && w.counts[2] == 0 {
			if len(w.far) == 0 {
				return false
			}
			// Everything resident is beyond the L2 horizon: jump straight to
			// the earliest overflow entry and pull the heap in.
			w.cur = int64(w.far[0].at) >> bucketShift
			w.migrateFar()
			continue
		}
		// Advance to the next L1 boundary and cascade the slot it opens.
		w.cur = (w.cur>>twSlotBits + 1) << twSlotBits
		cur1 := w.cur >> twSlotBits
		if cur1&twSlotMask == 0 {
			// Crossed an L2 boundary too: open its slot first, so its
			// entries are in place before the L1 slot scatters.
			w.cascade(2, (cur1>>twSlotBits)&twSlotMask)
			w.migrateFar()
		}
		w.cascade(1, cur1&twSlotMask)
	}
}

// peek returns the earliest live (at, seq) without removing it, settling
// cascades as needed: the root of the current L0 slot's heap. Tombstones
// met at the root are discarded on the way.
func (w *timerWheel) peek() (Time, uint64, bool) {
	for w.pending() > 0 && w.settle() { // settle leaves cur at the first occupied slot
		slot := w.cur & twSlotMask
		k := &w.slots[0][slot][0]
		if w.ents.items[k.idx].t != nil {
			return k.at, k.seq, true
		}
		w.ents.take(w.popSlot(slot).idx)
		w.dead--
	}
	return 0, 0, false
}

// popSlot removes the root key of L0 slot.
func (w *timerWheel) popSlot(slot int64) key {
	k := w.slots[0][slot].pop()
	if len(w.slots[0][slot]) == 0 {
		w.occ[0][slot>>6] &^= 1 << uint(slot&63)
	}
	w.counts[0]--
	return k
}

// pop removes the earliest live entry and returns its deadline and
// payload. Callers peek first, which leaves a live key at the current
// slot's root.
func (w *timerWheel) pop() (Time, twEntry) {
	k := w.popSlot(w.cur & twSlotMask)
	w.fired++
	e := w.ents.take(k.idx)
	e.t.ent = 0
	return k.at, e
}

// TimerBackend selects how armed timers are scheduled.
type TimerBackend uint8

const (
	// TimerBackendWheel (the default) keeps armed timers in the
	// hierarchical timer wheel: pending event-queue entries stay
	// independent of the number of armed timers.
	TimerBackendWheel TimerBackend = iota
	// TimerBackendEvent is the legacy reference path: every arm schedules
	// one delivery event on the calendar queue. Byte-identical to the wheel
	// by construction; kept as the oracle for the equivalence property test
	// and the conn-scale sweep's backend axis.
	TimerBackendEvent
)

// SetTimerBackend selects the timer scheduling backend. Call it before the
// simulation runs; switching while timers are armed is unsupported. In PDES
// mode call it before machines are created so domains inherit the choice.
func (s *Simulator) SetTimerBackend(b TimerBackend) {
	s.timerBackend = b
	if s.pdes != nil && s.parent == nil {
		for _, d := range s.pdes.domains {
			d.timerBackend = b
		}
	}
}

// armTimers inserts one flushed run of timer arms sharing a single sequence
// number, mirroring what a batched delivery of the boxed firings would have
// consumed on the legacy path. Arms whose timer was stopped or re-armed
// before the flush never enter the wheel.
func (s *Simulator) armTimers(at Time, arms []outMsg) {
	if at < s.now {
		at = s.now
	}
	seq := s.nextSeq()
	for k := range arms {
		o := &arms[k]
		if o.tgen != o.timer.gen {
			s.tw.cancelled++
			continue
		}
		s.tw.insert(at, seq, uint32(k), o.timer, o.msg, o.dst)
	}
}

// fireTimer delivers one popped wheel entry. The boxed firing is built only
// now, from the freelist, and travels through Proc.Deliver exactly like a
// scheduled delivery event: drop injection, dead-process drops, tracer
// arrival stamps and wake scheduling all behave identically. The entry was
// its timer's current arming, so it fires with the timer's generation.
func (s *Simulator) fireTimer(at Time, e twEntry) {
	s.now = at
	s.eventsRun++
	e.proc.Deliver(s.newTimerFire(e.t, e.t.gen, e.msg))
}

// stepNext runs the earliest of the event-queue head and the timer-wheel
// head, merged by (at, seq). If bounded, work after limit is left in place
// and false is returned.
func (s *Simulator) stepNext(limit Time, bounded bool) bool {
	wa, wseq, wok := s.tw.peek()
	if !wok {
		at, e, ok := s.q.pop(limit, bounded)
		if !ok {
			return false
		}
		s.run(at, e)
		return true
	}
	slot, qa, qseq, qok := s.q.peekPos()
	if qok && (qa < wa || (qa == wa && qseq < wseq)) {
		if bounded && qa > limit {
			return false
		}
		s.run(s.q.take(slot))
		return true
	}
	if bounded && wa > limit {
		return false
	}
	s.fireTimer(s.tw.pop())
	return true
}

// peekTime returns the earliest pending timestamp across the event queue and
// the timer wheel. The PDES coordinator uses this at every barrier.
func (s *Simulator) peekTime() (Time, bool) {
	qt, qok := s.q.peekTime()
	wt, _, wok := s.tw.peek()
	switch {
	case qok && wok:
		if wt < qt {
			return wt, true
		}
		return qt, true
	case qok:
		return qt, true
	case wok:
		return wt, true
	}
	return 0, false
}

// idleLocal reports whether this simulator (queue and wheel) has no pending
// work of its own.
func (s *Simulator) idleLocal() bool { return s.q.empty() && s.tw.empty() }

// TimerStats reports timer-wheel counters. Pending is the number of live
// armed timers resident in the wheel (cancelled ones leave at once).
// Cascades counts entries scattered down a level, Fired live entries popped
// for delivery. Cancelled counts arms cancelled by Stop or Retimer before
// their firing was delivered: wheel entries removed, arms superseded before
// their flush, and — on the legacy event backend — boxed firings discarded
// when their event pops. Stale counts firings dropped at dispatch because
// their timer was stopped or re-armed while the firing sat in the inbox. On
// a PDES control plane the counters total across all domains; call it only
// at a barrier.
type TimerStats struct {
	Pending   int
	Cascades  uint64
	Fired     uint64
	Stale     uint64
	Cancelled uint64
}

// TimerStats returns the simulator's timer-wheel counters.
func (s *Simulator) TimerStats() TimerStats {
	var st TimerStats
	add := func(w *timerWheel) {
		st.Pending += w.pending()
		st.Cascades += w.cascaded
		st.Fired += w.fired
		st.Stale += w.stale
		st.Cancelled += w.cancelled
	}
	add(&s.tw)
	if s.pdes != nil && s.parent == nil {
		for _, d := range s.pdes.domains {
			add(&d.tw)
		}
	}
	return st
}

// PendingEvents returns the number of events resident in the calendar
// queue(s), excluding wheel-resident timers. With the wheel backend this
// stays independent of the number of armed timers — the conn-scale
// experiments assert exactly that. On a PDES control plane it totals across
// all domains; call it only at a barrier.
func (s *Simulator) PendingEvents() int {
	n := s.q.len()
	if s.pdes != nil && s.parent == nil {
		for _, d := range s.pdes.domains {
			n += d.q.len()
		}
	}
	return n
}
