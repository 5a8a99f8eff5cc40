package engine

import "math"

// This file is the O(log n) event core of the stepper: the indexed structures
// that replace the kernel's per-event linear passes over the alive set.
//
// Two structures cover the two completion-search regimes of the loop:
//
//   - calendarQueue: a timer-wheel calendar queue over the virtual-service
//     keys of equal-share segments (see the virtual-clock notes in engine.go).
//     Keys are only ever popped near the monotonically increasing virtual
//     clock, which is exactly the access pattern calendar queues are O(1)
//     amortized for: a cursor walks a ring of narrow buckets, keys beyond
//     the bucket window wait in an overflow list that is re-bucketed when the
//     cursor wraps, and the wheel grows with the backlog so buckets stay
//     short.
//   - idxHeap: an indexed binary min-heap keyed by slot, used for the
//     delta-ratio eligibility bound of the virtual mode and for the
//     completion-quotient index of the fallback path.
//
// Both structures obey the determinism rule of the whole engine: every value
// they surface (a minimum key, a pop order) is a pure function of the
// (key, task-id) multiset they hold, never of their internal layout. The
// calendar scans the leading bucket for the (key, id)-minimum instead of
// trusting insertion order, so a queue bulk-rebuilt at a mode transition pops
// the same sequence as one that grew event by event — the property
// FuzzEventQueueEquivalence leans on.
//
// All storage is Runner scratch: inserts append into kept-capacity slices, so
// a warmed engine runs both structures without heap allocation, and a
// transition rebuilds them from the live slots without allocating either.

// QueueStats is the per-run counter pair recording which event core ran each
// policy event: the virtual-clock equal-share path (no policy invocation, the
// calendar queue or its naive reference) or the fallback path (policy invoked,
// the quotient heap or the naive min-scan). Their sum is Result.Events.
type QueueStats struct {
	// VirtualEvents counts events decided on the virtual-service clock.
	VirtualEvents int
	// FallbackEvents counts events decided by invoking the policy.
	FallbackEvents int
	// Transitions counts mode switches between the two paths (each switch
	// pays an O(alive) rebuild or materialization).
	Transitions int
}

// EventCore selects the data structures behind the stepper's completion
// search. The semantics of a run — every event time, allocation, metric and
// sink row — are identical under every core; only the asymptotics differ.
// CoreNaive is retained as the executable reference the equivalence fuzz
// target and the byte-identity tests compare CoreAuto against.
type EventCore int

const (
	// CoreAuto is the default: calendar queue on virtual segments, indexed
	// quotient heap on fallback segments.
	CoreAuto EventCore = iota
	// CoreNaive is the reference implementation: the same virtual-clock
	// semantics computed by linear scans (the pre-calendar min-scan shape).
	CoreNaive
)

// valid reports whether the value is a known core selector.
func (c EventCore) valid() bool { return c == CoreAuto || c == CoreNaive }

// String names the core for error messages and bench reports.
func (c EventCore) String() string {
	if c == CoreNaive {
		return "naive"
	}
	return "auto"
}

// idxHeap is an indexed binary min-heap over float64 keys, addressed by the
// live-slot number: update/remove by slot are O(log n) through the slot→node
// position index, and renumber keeps the index coherent across the kernel's
// swap-delete retirements. Ordering uses the key value only — every consumer
// wants the minimum VALUE (a dt or an eligibility bound), never an argmin
// tie-break, so ties cost nothing and determinism is free.
type idxHeap struct {
	valid bool
	heap  []int32   // node order: heap[0] holds the slot with the least key
	pos   []int32   // slot → node index, -1 when the slot is not queued
	key   []float64 // slot → key
}

// reset empties the heap and sizes the slot index for n slots.
func (h *idxHeap) reset(n int) {
	h.heap = h.heap[:0]
	h.pos = growInt32(h.pos, n)
	h.key = growFloat(h.key, n)
	for i := 0; i < n; i++ {
		h.pos[i] = -1
	}
	h.valid = true
}

// growInt32 returns s resized to length n, reusing its storage.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growFloat returns s resized to length n, reusing its storage.
func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ensure grows the slot index to address slot (appends keep amortized O(1)).
func (h *idxHeap) ensure(slot int) {
	for len(h.pos) <= slot {
		h.pos = append(h.pos, -1)
		h.key = append(h.key, 0)
	}
}

// push inserts a new slot with the given key.
func (h *idxHeap) push(slot int, key float64) {
	h.ensure(slot)
	h.key[slot] = key
	h.pos[slot] = int32(len(h.heap))
	h.heap = append(h.heap, int32(slot))
	h.siftUp(len(h.heap) - 1)
}

// update changes the key of a queued slot (or inserts it if absent).
func (h *idxHeap) update(slot int, key float64) {
	h.ensure(slot)
	if h.pos[slot] < 0 {
		h.push(slot, key)
		return
	}
	old := h.key[slot]
	h.key[slot] = key
	i := int(h.pos[slot])
	if key < old {
		h.siftUp(i)
	} else if key > old {
		h.siftDown(i)
	}
}

// removeSlot deletes a slot from the heap; absent slots are a no-op.
func (h *idxHeap) removeSlot(slot int) {
	if slot >= len(h.pos) || h.pos[slot] < 0 {
		return
	}
	i := int(h.pos[slot])
	last := len(h.heap) - 1
	h.pos[slot] = -1
	if i != last {
		moved := h.heap[last]
		h.heap[i] = moved
		h.pos[moved] = int32(i)
		h.heap = h.heap[:last]
		h.siftDown(i)
		h.siftUp(int(h.pos[moved]))
		return
	}
	h.heap = h.heap[:last]
}

// renumber moves slot old's entry to slot new — the swap-delete fixup: the
// kernel just moved live[old] into live[new].
func (h *idxHeap) renumber(oldSlot, newSlot int) {
	if oldSlot >= len(h.pos) || h.pos[oldSlot] < 0 {
		return
	}
	i := h.pos[oldSlot]
	h.ensure(newSlot)
	h.key[newSlot] = h.key[oldSlot]
	h.pos[newSlot] = i
	h.pos[oldSlot] = -1
	h.heap[i] = int32(newSlot)
}

// min returns the least key, or +Inf when the heap is empty.
func (h *idxHeap) min() float64 {
	if len(h.heap) == 0 {
		return math.Inf(1)
	}
	return h.key[h.heap[0]]
}

// rebuild re-heapifies from the keys slice (indexed by slot, length n) in
// O(n) — the bulk path for mode transitions and events where most
// keys changed at once.
func (h *idxHeap) rebuild(keys []float64) {
	n := len(keys)
	h.pos = growInt32(h.pos, n)
	h.key = growFloat(h.key, n)
	h.heap = h.heap[:0]
	for i := 0; i < n; i++ {
		h.key[i] = keys[i]
		h.pos[i] = int32(i)
		h.heap = append(h.heap, int32(i))
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	h.valid = true
}

func (h *idxHeap) siftUp(i int) {
	node := h.heap[i]
	k := h.key[node]
	for i > 0 {
		parent := (i - 1) / 2
		if h.key[h.heap[parent]] <= k {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = node
	h.pos[node] = int32(i)
}

func (h *idxHeap) siftDown(i int) {
	n := len(h.heap)
	node := h.heap[i]
	k := h.key[node]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.key[h.heap[r]] < h.key[h.heap[c]] {
			c = r
		}
		if k <= h.key[h.heap[c]] {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = node
	h.pos[node] = int32(i)
}

// calendarQueue is the timer-wheel index over virtual-service completion
// keys. Buckets cover the half-open window [base, base+width·nb); keys past
// the window wait in the overflow list and are distributed when the cursor
// wraps. base and limit are FIXED for a window's lifetime (only reset moves
// them) — that fixes the order invariant the whole structure rests on: every
// bucketed key < limit ≤ every overflow key, so the global minimum always
// lives in the first non-empty bucket. Inserts whose key falls before the
// cursor's bucket are clamped into the cursor bucket — peekMin scans a whole
// bucket for the (key, id) minimum, so a clamped early key is still found
// first.
//
// Resizing. Virtual-clock keys are vnow + rem/w with vnow crawling at
// p/wsum, so on a deep backlog nearly every arrival lands inside the window
// sized when the segment began, and a fixed wheel would pile the whole
// backlog into a few buckets. insert therefore grows the wheel as in Brown's
// calendar queue: once n > 2·nb, rewindow re-buckets every filed key into
// nextpow2(n) buckets spread over the keys' current span. A grow at least
// doubles nb, so the rebuilds of a queue that reaches n keys form a
// geometric series summing to O(n): O(1) amortized per insert. There is no
// shrink rule: buckets only empty by popping, so the cursor's walk over a
// window is paid for by the keys the window was sized for, and rewindow
// re-sizes the wheel to the overflow it redistributes.
//
// Layout. Every list (the nb buckets and the overflow) is an intrusive
// doubly linked list threaded through flat slot-indexed arrays: head[b] is
// the first slot of list b, with the overflow list at head[nb]; next and
// prev link a list's slots; bucketOf names each slot's list; key caches each
// slot's key so scans and re-bucketing never touch the live slots. A bucket
// costs one int32 and owns no backing array, so resizing reuses the same
// storage whatever geometries a run goes through.
//
// Geometry (width, bucket count, window base) adapts to occupancy at rebuild,
// grow and wrap points, and deliberately has no effect on anything
// observable: extraction order is value-ordered, so a queue with different
// geometry — say, one bulk-rebuilt at a transition — pops the identical
// sequence.
type calendarQueue struct {
	valid bool
	base  float64 // virtual time at bucket 0's left edge (fixed per window)
	limit float64 // base + width·nb: the overflow threshold
	width float64
	nb    int // bucket count; list nb is the overflow list
	cur   int
	n     int
	head  []int32 // list → first slot, -1 when empty; length nb+1
	// slot → filing: the slot's list, its neighbours there (-1 at either
	// end) and its key.
	bucketOf []int32
	next     []int32
	prev     []int32
	key      []float64
}

// calMinBuckets keeps the wheel from degenerating at tiny occupancies.
const calMinBuckets = 16

// reset empties the queue and re-anchors the window at base for about n
// keys spanning roughly span units of virtual service.
func (q *calendarQueue) reset(base, span float64, n int) {
	nb := calMinBuckets
	for nb < n {
		nb *= 2
	}
	q.head = growInt32(q.head, nb+1)
	for i := range q.head {
		q.head[i] = -1
	}
	q.nb = nb
	q.base = base
	q.cur = 0
	q.n = 0
	// Aim for ~1 key per bucket across the observed span; a degenerate span
	// (all keys equal, or a single key) gets a unit-ish width so every key
	// lands in one bucket and the scan degenerates gracefully.
	w := span / float64(nb)
	if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
		w = math.Max(1e-9, 1e-9*math.Abs(base))
		if w == 0 {
			w = 1e-9
		}
	}
	q.width = w
	q.limit = q.base + w*float64(nb)
	q.valid = true
}

// ensureSlots grows the slot-indexed arrays to address slot.
func (q *calendarQueue) ensureSlots(slot int) {
	for len(q.key) <= slot {
		q.bucketOf = append(q.bucketOf, 0)
		q.next = append(q.next, -1)
		q.prev = append(q.prev, -1)
		q.key = append(q.key, 0)
	}
}

// link files a slot, whose key is already cached, at the head of its list.
func (q *calendarQueue) link(slot int) {
	k := q.key[slot]
	b := q.nb
	if k < q.limit {
		b = 0
		if k > q.base {
			b = int((k - q.base) / q.width)
		}
		if b < q.cur {
			b = q.cur // clamp: never file behind the cursor
		}
		if b >= q.nb {
			b = q.nb - 1
		}
	}
	h := q.head[b]
	q.bucketOf[slot] = int32(b)
	q.prev[slot] = -1
	q.next[slot] = h
	if h >= 0 {
		q.prev[h] = int32(slot)
	}
	q.head[b] = int32(slot)
}

// insert files a slot under its key, growing the wheel once the queue holds
// more than two keys per bucket.
func (q *calendarQueue) insert(slot int, key float64) {
	q.ensureSlots(slot)
	q.key[slot] = key
	q.link(slot)
	q.n++
	if q.n > 2*q.nb {
		q.rewindow()
	}
}

// peekMin returns the slot holding the (key, id)-least entry. The live slice
// supplies the id tie-break, so the answer is a pure function of queue
// contents. Returns ok=false on an empty queue.
func (q *calendarQueue) peekMin(live []liveTask) (slot int, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	for {
		for ; q.cur < q.nb; q.cur++ {
			best := q.head[q.cur]
			if best < 0 {
				continue
			}
			for s := q.next[best]; s >= 0; s = q.next[s] {
				if q.key[s] < q.key[best] || (q.key[s] == q.key[best] && live[s].id < live[best].id) {
					best = s
				}
			}
			return int(best), true
		}
		// Window exhausted: re-anchor it over the overflow keys. Width and
		// bucket count re-adapt to what is left (amortized O(1) per key).
		q.rewindow()
	}
}

// rewindow re-buckets every filed key into a fresh window sized for the
// current count: the grow step of insert, and the wrap step of peekMin once
// the cursor has walked every bucket (every key is then in the overflow
// list). Buckets behind the cursor are empty, so chaining the lists from the
// cursor on collects every key. The new window spans [lo, lo+span) with span
// covering the largest key, so the redistribution itself never re-overflows.
func (q *calendarQueue) rewindow() {
	chain := int32(-1)
	lo, hi := math.Inf(1), math.Inf(-1)
	for b := q.cur; b <= q.nb; b++ {
		for s := q.head[b]; s >= 0; {
			nx := q.next[s]
			q.next[s] = chain
			chain = s
			k := q.key[s]
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
			s = nx
		}
	}
	n := q.n
	q.reset(lo, (hi-lo)+q.width, n)
	for s := chain; s >= 0; {
		nx := q.next[s]
		q.link(int(s))
		s = nx
	}
	q.n = n
}

// removeSlot deletes a slot from wherever it is filed.
func (q *calendarQueue) removeSlot(slot int) {
	p, nx := q.prev[slot], q.next[slot]
	if p >= 0 {
		q.next[p] = nx
	} else {
		q.head[q.bucketOf[slot]] = nx
	}
	if nx >= 0 {
		q.prev[nx] = p
	}
	q.n--
}

// renumber moves slot old's filing to slot new (the swap-delete fixup).
func (q *calendarQueue) renumber(oldSlot, newSlot int) {
	q.ensureSlots(newSlot)
	b, p, nx := q.bucketOf[oldSlot], q.prev[oldSlot], q.next[oldSlot]
	q.bucketOf[newSlot], q.prev[newSlot], q.next[newSlot] = b, p, nx
	q.key[newSlot] = q.key[oldSlot]
	if p >= 0 {
		q.next[p] = int32(newSlot)
	} else {
		q.head[b] = int32(newSlot)
	}
	if nx >= 0 {
		q.prev[nx] = int32(newSlot)
	}
}

// rebuildCalendar bulk-loads the queue from the live slots — the transition
// path. Geometry is chosen from the key span, but (see the type
// comment) geometry never affects extraction order.
func (q *calendarQueue) rebuildCalendar(live []liveTask, vnow float64) {
	hi := vnow
	for i := range live {
		if k := live[i].key; k > hi {
			hi = k
		}
	}
	q.reset(vnow, (hi-vnow)+1e-9, len(live))
	for i := range live {
		q.insert(i, live[i].key)
	}
}
