package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/malleable-sched/malleable/internal/engine"
)

// pool is the coordinator's persistent worker pool for the batched modes:
// hands goroutines — the coordinator itself plus hands-1 helpers — each
// statically owning the shards congruent to its index, started together for
// one "window" of concurrent shard advancement and joined at a barrier
// before the router runs again. The static partition means a shard is only
// ever touched by one goroutine, so the engine's single-threaded steppers
// need no locking and every shard's event sequence is exactly the sequence
// the sequential coordinator would have produced.
//
// Run clamps hands to GOMAXPROCS: a hand beyond the runnable processors
// only time-slices with the others, and the coordinator, idle while the
// window runs, is a hand too. The barrier is an epoch counter plus a
// completion count, both atomic. A waiter polls them for up to spinFor —
// windows and the gaps between them are often shorter than a scheduler
// wake-up — and then parks: a helper on the wake condition until the next
// epoch, the coordinator on the joined channel until the last helper
// arrives, so a long wait burns no processor. Atomic operations carry the
// happens-before edges: the coordinator publishes the window's work before
// bumping the epoch, and each helper publishes its error slot before
// bumping done, so the race detector sees a clean handoff. The pool lives
// for one cluster run; close() retires the helpers.
type pool struct {
	hands int
	owned [][]int // hand -> statically owned shard indices
	work  func(shard int) error

	epoch   atomic.Uint64
	done    atomic.Int64 // helpers through the current window
	stopped atomic.Bool
	errs    []error // hand -> its window's error
	failed  []int   // hand -> the shard that produced errs[hand]

	// Parking. A helper registers in parked, under mu, before its last
	// epoch check, and the coordinator checks parked after bumping the
	// epoch; joining and done pair up the same way for the barrier. Each
	// side writes its own flag before reading the other's, so at least one
	// of the two sees the other and no wakeup is lost.
	mu      sync.Mutex
	wake    sync.Cond
	parked  atomic.Int32
	joining atomic.Bool
	joined  chan struct{} // capacity 1: a wakeup, re-checked against done

	wg sync.WaitGroup
}

// spinFor bounds how long a waiter polls the barrier before it parks.
// Waking a parked goroutine costs tens of microseconds of scheduler latency
// on the critical path of the window, so the spin covers the common gaps: a
// helper waiting out the coordinator's routing of the next window (about
// 120 µs for 512 dispatches on cluster-rr8-batched), or the hands finishing
// a window a little apart. A longer wait — an idle stream, a slow window —
// parks and burns no processor.
const spinFor = 200 * time.Microsecond

// spinCheck is how many polls pass between two reads of the clock.
const spinCheck = 64

// newPool starts a pool of hands hands (the coordinator and hands-1 helper
// goroutines) over shards shards. hands must be in [2, shards].
func newPool(hands, shards int) *pool {
	p := &pool{
		hands:  hands,
		owned:  make([][]int, hands),
		errs:   make([]error, hands),
		failed: make([]int, hands),
		joined: make(chan struct{}, 1),
	}
	p.wake.L = &p.mu
	for s := 0; s < shards; s++ {
		h := s % hands
		p.owned[h] = append(p.owned[h], s)
	}
	p.wg.Add(hands - 1)
	for h := 1; h < hands; h++ {
		go p.loop(h)
	}
	return p
}

// loop is a helper's life: wait for each window, run its share, report at
// the barrier.
func (p *pool) loop(h int) {
	defer p.wg.Done()
	seen := uint64(0)
	for {
		e, ok := p.nextEpoch(seen)
		if !ok {
			return
		}
		seen = e
		p.share(h)
		if p.done.Add(1) == int64(p.hands-1) && p.joining.Load() {
			select {
			case p.joined <- struct{}{}:
			default: // a wakeup is already pending; the coordinator re-checks done
			}
		}
	}
}

// nextEpoch waits for the epoch to move past seen — spinning first, then
// parked on the wake condition — and returns it, or false once the pool is
// stopped.
func (p *pool) nextEpoch(seen uint64) (uint64, bool) {
	moved := func() bool { return p.epoch.Load() != seen || p.stopped.Load() }
	if !spin(moved) {
		p.mu.Lock()
		p.parked.Add(1)
		for !moved() {
			p.wake.Wait()
		}
		p.parked.Add(-1)
		p.mu.Unlock()
	}
	e := p.epoch.Load()
	return e, e != seen
}

// spin polls ready for up to spinFor and reports whether it turned true.
func spin(ready func() bool) bool {
	start := time.Now()
	for i := 1; ; i++ {
		if ready() {
			return true
		}
		if i%spinCheck == 0 && time.Since(start) > spinFor {
			return false
		}
	}
}

// share runs the current work function over hand h's shards, stopping at
// the first failure.
func (p *pool) share(h int) {
	p.errs[h] = nil
	for _, s := range p.owned[h] {
		if err := runShard(p.work, s); err != nil {
			p.errs[h], p.failed[h] = err, s
			return
		}
	}
}

// runShard applies work to shard s, converting a panic in policy or model
// code into the shard's error, so the coordinator fails the run instead of
// crashing the process — whichever goroutine runs the shard, a pool helper
// or the coordinator itself.
func runShard(work func(shard int) error, s int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("cluster: shard %d: panic: %v", s, rec)
		}
	}()
	return work(s)
}

// run executes one window: every hand, the calling coordinator included,
// applies work to its shards; run returns once all of them have reached the
// barrier, with the error of the lowest failing shard if any failed — the
// error a serial pass over the shards would stop at.
func (p *pool) run(work func(shard int) error) error {
	p.work = work
	p.done.Store(0)
	p.epoch.Add(1)
	if p.parked.Load() > 0 {
		p.mu.Lock()
		p.wake.Broadcast()
		p.mu.Unlock()
	}
	p.share(0)
	p.join()
	var err error
	first := -1
	for h, e := range p.errs {
		if e != nil && (first < 0 || p.failed[h] < first) {
			err, first = e, p.failed[h]
		}
	}
	return err
}

// join waits until every helper is through the current window: a bounded
// spin, then parked on the joined channel.
func (p *pool) join() {
	want := int64(p.hands - 1)
	if spin(func() bool { return p.done.Load() == want }) {
		return
	}
	p.joining.Store(true)
	for p.done.Load() < want {
		<-p.joined
	}
	p.joining.Store(false)
}

// close retires the helper goroutines. Safe to call once, after the last
// window has returned.
func (p *pool) close() {
	p.mu.Lock()
	p.stopped.Store(true)
	p.wake.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// taggedRow is one buffered shared-sink observation plus the global dispatch
// window it belongs to (see sinkBuffer).
type taggedRow struct {
	m      engine.TaskMetrics
	window int
}

// sinkBuffer stands in for the shared Config.Sink on one shard during
// parallel execution: it records completions instead of forwarding them, so
// workers never touch the shared sink concurrently, and the coordinator
// replays the buffers into the real sink at the next barrier in exactly the
// order the sequential coordinator would have produced.
//
// That order is reconstructed from a per-row sort key. Sequentially, a row
// emitted at virtual time t by shard s is observed during the advance for
// global dispatch k, where k is the first dispatch whose release covers t
// AND that follows the feed that made the row's event schedulable on s —
// k = max(lastFeed_s+1, min{j : release_j >= t}) — and within one advance
// rows are interleaved by (time, shard index), lowest first. Both
// ingredients are computable shard-locally: the worker bumps floor past each
// arrival it feeds, and releases (the batch's global release sequence,
// shared read-only) gives the covering dispatch by binary search. Rows
// retiring after the batch's last dispatch take window len(releases), i.e.
// they sort after every dispatched window, which is where the sequential
// drain emits them.
type sinkBuffer struct {
	rows     []taggedRow
	releases []float64 // global releases of the current batch, shared read-only
	floor    int       // 1 + batch index of the last arrival fed to this shard
}

// Observe buffers one completion with its reconstructed dispatch window.
func (b *sinkBuffer) Observe(m engine.TaskMetrics) {
	k := sort.SearchFloat64s(b.releases, m.Completion)
	if k < b.floor {
		k = b.floor
	}
	b.rows = append(b.rows, taggedRow{m: m, window: k})
}

// reset prepares the buffer for the next batch.
func (b *sinkBuffer) reset(releases []float64) {
	b.rows = b.rows[:0]
	b.releases = releases
	b.floor = 0
}

// flushBuffers merges the per-shard buffers into the shared sink in the
// sequential coordinator's global order: ascending (window, completion time,
// shard index), within-shard order preserved. Each buffer is already sorted
// by that key (a shard's windows and times are non-decreasing), so an
// n-way head scan suffices; n is the shard count, a handful, so the scan
// beats a merge heap. head is caller-owned scratch of length len(bufs) so a
// flush per dispatch window stays allocation-free.
func flushBuffers(bufs []*sinkBuffer, sink engine.MetricSink, head []int) {
	for i := range head {
		head[i] = 0
	}
	for {
		best := -1
		var bestW int
		var bestT float64
		for s, b := range bufs {
			if head[s] >= len(b.rows) {
				continue
			}
			r := b.rows[head[s]]
			if best < 0 || r.window < bestW || (r.window == bestW && r.m.Completion < bestT) {
				best, bestW, bestT = s, r.window, r.m.Completion
			}
		}
		if best < 0 {
			return
		}
		sink.Observe(bufs[best].rows[head[best]].m)
		head[best]++
	}
}
