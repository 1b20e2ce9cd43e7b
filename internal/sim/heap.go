package sim

// key orders one pending item of the event queue or the timer wheel and
// locates its payload in the owner's slab. Items order by (at, seq, ord):
// seq is stamped once per scheduled event or flushed run of timer arms (a
// local sequence number in the seqLocal class, or a wire arrival's
// canonical stamp below it), and ord numbers the arms within one run (it
// stays 0 for events), so keys are unique and every heap below pops in
// exactly sorted order — the containers' layout never shows in the
// simulation's output.
//
// Keys hold no pointers: a heap sift moves 24 bytes with no write barrier,
// and the garbage collector never scans bucket or slot storage.
type key struct {
	at  Time
	seq uint64
	ord uint32
	idx uint32
}

func (a *key) less(b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.ord < b.ord
}

// keyHeap is a binary min-heap of keys: the one heap of the package, used by
// the calendar queue's buckets and far heap and by the timer wheel's level-0
// slots and overflow heap. Drained heaps keep their capacity for reuse.
type keyHeap []key

func (h *keyHeap) push(k key) {
	*h = append(*h, k)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = k
}

// pop removes and returns the minimum of a non-empty heap.
func (h *keyHeap) pop() key {
	s := *h
	top := s[0]
	n := len(s) - 1
	k := s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].less(&s[c]) {
			c++
		}
		if !s[c].less(&k) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = k
	}
	return top
}

// slab stores the payloads that keys point at. A payload is written once
// when its item is queued and read once when it pops; released slots are
// reused before the slab grows, so a steady state allocates nothing.
type slab[T any] struct {
	items []T
	free  []uint32
}

func (s *slab[T]) put(x T) uint32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[i] = x
		return i
	}
	s.items = append(s.items, x)
	return uint32(len(s.items) - 1)
}

// take returns the payload at i and releases its slot, dropping the slot's
// references for the garbage collector.
func (s *slab[T]) take(i uint32) T {
	x := s.items[i]
	var zero T
	s.items[i] = zero
	s.free = append(s.free, i)
	return x
}
