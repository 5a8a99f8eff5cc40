package engine

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/stepfunc"
	"github.com/malleable-sched/malleable/internal/workload"
)

// runCore executes one retained run under the given event core and returns
// the result plus the core counters.
func runCore(t testing.TB, core EventCore, p float64, policy Policy, arrivals []Arrival, model speedup.Model) (*Result, QueueStats) {
	t.Helper()
	r := NewRunner()
	res, err := r.RunWithOptions(p, policy, arrivals, Options{Model: model, EventCore: core})
	if err != nil {
		t.Fatalf("core %v: %v", core, err)
	}
	return res, r.LastQueueStats()
}

// requireIdenticalRuns asserts two runs are bitwise identical: every
// aggregate and every per-task row.
func requireIdenticalRuns(t testing.TB, label string, a, b *Result) {
	t.Helper()
	if a.Events != b.Events || a.Completed != b.Completed || a.MaxAlive != b.MaxAlive {
		t.Fatalf("%s: counters diverge: events %d vs %d, completed %d vs %d, maxAlive %d vs %d",
			label, a.Events, b.Events, a.Completed, b.Completed, a.MaxAlive, b.MaxAlive)
	}
	if a.WeightedFlow != b.WeightedFlow || a.WeightedCompletion != b.WeightedCompletion ||
		a.TotalFlow != b.TotalFlow || a.Makespan != b.Makespan {
		t.Fatalf("%s: aggregates diverge: wf %.17g vs %.17g, wc %.17g vs %.17g, tf %.17g vs %.17g, mk %.17g vs %.17g",
			label, a.WeightedFlow, b.WeightedFlow, a.WeightedCompletion, b.WeightedCompletion,
			a.TotalFlow, b.TotalFlow, a.Makespan, b.Makespan)
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatalf("%s: task tables differ in length: %d vs %d", label, len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("%s: task %d diverges: %+v vs %+v", label, i, a.Tasks[i], b.Tasks[i])
		}
	}
}

// The contract of Options.EventCore: the calendar-queue/heap core and the
// naive-scan reference produce bitwise-identical runs — same event count,
// same aggregates, same per-task rows, same path counters — across the
// policy × model matrix, at moderate and at overloaded (deep-backlog)
// operating points. The overloaded wdeq/linear cells run almost entirely on
// the virtual clock; the greedy and nonlinear cells run entirely on the
// fallback path; the platform cells force budget events through it.
func TestEventCoreEquivalence(t *testing.T) {
	profile, err := stepfunc.FromSteps([]float64{0, 5, 11, 17}, []float64{8, 3, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]speedup.Model{
		"linear":   nil,
		"powerlaw": speedup.PowerLaw{Alpha: 0.6},
		"platform": speedup.Platform{Profile: profile},
	}
	loads := map[string]float64{"moderate": 8, "overloaded": 40}
	for loadName, rate := range loads {
		for modelName, model := range models {
			for policyName, policy := range invariantPolicies(t, 768) {
				arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
					Class:   workload.Uniform,
					P:       8,
					Process: workload.Poisson,
					Rate:    rate,
				}, 768, 41)
				if err != nil {
					t.Fatal(err)
				}
				label := loadName + "/" + modelName + "/" + policyName
				auto, statsAuto := runCore(t, CoreAuto, 8, policy, arrivals, model)
				naive, statsNaive := runCore(t, CoreNaive, 8, policy, arrivals, model)
				requireIdenticalRuns(t, label, auto, naive)
				if statsAuto != statsNaive {
					t.Fatalf("%s: path counters diverge: %+v vs %+v", label, statsAuto, statsNaive)
				}
				if statsAuto.VirtualEvents+statsAuto.FallbackEvents != auto.Events {
					t.Fatalf("%s: path counters %+v do not sum to events %d", label, statsAuto, auto.Events)
				}
			}
		}
	}
}

// The fast path must actually engage where it is certified — an overloaded
// equal-share run on the linear model decides most events on the virtual
// clock — and must stay off everywhere it is not.
func TestVirtualPathEngagement(t *testing.T) {
	// Overloaded large-delta stream: with δ > P/2 and unit weights no task
	// is ever degree-pinned once two are alive, so nearly the whole run is
	// one equal-share segment.
	deep, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Class:   workload.LargeDelta,
		P:       8,
		Process: workload.Poisson,
		Rate:    40,
	}, 1024, 17)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := runCore(t, CoreAuto, 8, WDEQPolicy{}, deep, nil)
	if stats.VirtualEvents == 0 {
		t.Fatalf("wdeq/linear run decided no events on the virtual clock: %+v", stats)
	}
	if stats.VirtualEvents < stats.FallbackEvents {
		t.Errorf("overloaded wdeq/linear should be mostly virtual, got %+v", stats)
	}
	arrivals := allocArrivals(t, 1024, 17)
	// Uncertified policy: never virtual.
	_, stats = runCore(t, CoreAuto, 8, WeightGreedyPolicy{}, arrivals, nil)
	if stats.VirtualEvents != 0 || stats.Transitions != 0 {
		t.Fatalf("weight-greedy run must never take the virtual path, got %+v", stats)
	}
	// Certified policy, nonlinear model: never virtual.
	_, stats = runCore(t, CoreAuto, 8, WDEQPolicy{}, arrivals, speedup.Amdahl{Sigma: 0.2})
	if stats.VirtualEvents != 0 {
		t.Fatalf("wdeq/amdahl run must never take the virtual path, got %+v", stats)
	}
	// Tracing disables certification (virtual segments invoke no policy, so
	// the trace would be incomplete).
	r := NewRunner()
	if _, err := r.RunWithOptions(8, WDEQPolicy{}, arrivals, Options{TraceDecisions: true}); err != nil {
		t.Fatal(err)
	}
	if got := r.LastQueueStats(); got.VirtualEvents != 0 {
		t.Fatalf("traced run must never take the virtual path, got %+v", got)
	}
}

// Boundary coverage for StepUntil/NextEventTime under the new queue:
// zero-volume tasks whose virtual keys land exactly on the clock (the bucket
// boundary degenerate), batches of identical keys resolved by the (key, id)
// tie-break, and simultaneous capacity-step + completion ties under a
// time-varying platform.
func TestEventQueueBoundaries(t *testing.T) {
	task := func(vol, w, delta float64) schedule.Task {
		return schedule.Task{Volume: vol, Weight: w, Delta: delta}
	}
	cases := map[string][]Arrival{
		// Zero-volume tasks at admission time: key = vnow exactly, popped at
		// the admitting event; several at once exercise the tie-break.
		"zero-volume-on-boundary": {
			{Release: 0, Task: task(4, 1, 8)},
			{Release: 0.5, Task: task(0, 1, 8)},
			{Release: 0.5, Task: task(0, 2, 8)},
			{Release: 0.5, Task: task(3, 1, 8)},
			{Release: 2.5, Task: task(0, 1, 8)},
		},
		// Identical (volume, weight) pairs admitted together map to one
		// virtual key: completion order must fall back to task IDs, not to
		// calendar layout.
		"identical-keys": {
			{Release: 0, Task: task(2, 1, 2)},
			{Release: 0, Task: task(2, 1, 2)},
			{Release: 0, Task: task(2, 1, 2)},
			{Release: 0, Task: task(2, 1, 2)},
			{Release: 1, Task: task(2, 1, 2)},
			{Release: 1, Task: task(2, 1, 2)},
		},
	}
	for name, arrivals := range cases {
		t.Run(name, func(t *testing.T) {
			auto, statsAuto := runCore(t, CoreAuto, 8, WDEQPolicy{}, arrivals, nil)
			naive, statsNaive := runCore(t, CoreNaive, 8, WDEQPolicy{}, arrivals, nil)
			requireIdenticalRuns(t, name, auto, naive)
			if statsAuto != statsNaive {
				t.Fatalf("%s: path counters diverge: %+v vs %+v", name, statsAuto, statsNaive)
			}
			for _, tm := range auto.Tasks {
				if tm.Completion < tm.Release {
					t.Fatalf("%s: task %d completes before release: %+v", name, tm.ID, tm)
				}
			}
		})
	}

	t.Run("capacity-step-completion-tie", func(t *testing.T) {
		// One task of volume 8 at full capacity 8 completes at t=1; the
		// platform steps at exactly t=1. The budget event and the completion
		// coalesce (or land back to back) identically under both cores.
		profile, err := stepfunc.FromSteps([]float64{0, 1, 3}, []float64{8, 2, 8})
		if err != nil {
			t.Fatal(err)
		}
		arrivals := []Arrival{
			{Release: 0, Task: task(8, 1, 8)},
			{Release: 0.25, Task: task(4, 1, 8)},
			{Release: 1, Task: task(2, 1, 8)},
		}
		model := speedup.Platform{Profile: profile}
		auto, _ := runCore(t, CoreAuto, 8, WDEQPolicy{}, arrivals, model)
		naive, _ := runCore(t, CoreNaive, 8, WDEQPolicy{}, arrivals, model)
		requireIdenticalRuns(t, "capacity-step-tie", auto, naive)
	})
}

// StepUntil must leave the stepper strictly past the horizon under the
// virtual core, including horizons that coincide exactly with completion
// events.
func TestStepUntilVirtualHorizon(t *testing.T) {
	arrivals := allocArrivals(t, 256, 23)
	for _, core := range []EventCore{CoreAuto, CoreNaive} {
		var res Result
		r := NewRunner()
		st, err := r.StartFeed(&res, 8, WDEQPolicy{}, nil, Options{EventCore: core})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arrivals {
			if err := st.Feed(a); err != nil {
				t.Fatal(err)
			}
			// Drive exactly to the release: the admission event lands on the
			// horizon and must be processed by this call, not the next.
			if _, err := st.StepUntil(a.Release); err != nil {
				t.Fatal(err)
			}
			if nt := st.NextEventTime(); nt <= a.Release {
				t.Fatalf("core %v: NextEventTime %g not past horizon %g", core, nt, a.Release)
			}
		}
		st.CloseFeed()
		if _, err := st.StepUntil(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if err := st.Finish(); err != nil {
			t.Fatal(err)
		}
		if res.Completed != len(arrivals) {
			t.Fatalf("core %v: completed %d of %d", core, res.Completed, len(arrivals))
		}
	}
}

// Direct structure test: a calendar queue grown insert by insert must
// extract the same (key, id) sequence as one bulk-rebuilt from the same
// contents, whatever the geometry — including keys colliding in one bucket,
// keys far past the window (overflow), and a grown queue that crossed three
// resize thresholds on the way.
func TestCalendarQueueValueOrderedExtraction(t *testing.T) {
	const n = 2048
	rng := rand.New(rand.NewSource(11))
	live := make([]liveTask, 0, n)
	for i := 0; i < n; i++ {
		key := rng.Float64() * 10
		switch i % 5 {
		case 1:
			key = math.Floor(key) // collide on integer keys
		case 3:
			key = 1e6 + rng.Float64()*1e6 // deep overflow
		}
		live = append(live, liveTask{id: i, key: key})
	}
	var grown, rebuilt calendarQueue
	grown.reset(0, 1, calMinBuckets)
	grows := 0
	for i := range live {
		nb := grown.nb
		grown.insert(i, live[i].key)
		if grown.nb > nb {
			grows++
		}
	}
	if grows < 3 {
		t.Fatalf("grown queue crossed %d resize thresholds, want at least 3 (buckets %d)", grows, grown.nb)
	}
	rebuilt.rebuildCalendar(live, 0)
	checkCalendar(t, &grown, live)
	checkCalendar(t, &rebuilt, live)

	for left := len(live); left > 0; left-- {
		gs, gok := grown.peekMin(live)
		rs, rok := rebuilt.peekMin(live)
		if !gok || !rok {
			t.Fatalf("premature empty with %d left: grown=%v rebuilt=%v", left, gok, rok)
		}
		if live[gs].key != live[rs].key || live[gs].id != live[rs].id {
			t.Fatalf("extraction order depends on geometry: grown (%g, %d) vs rebuilt (%g, %d)",
				live[gs].key, live[gs].id, live[rs].key, live[rs].id)
		}
		grown.removeSlot(gs)
		rebuilt.removeSlot(rs)
	}
	if _, ok := grown.peekMin(live); ok {
		t.Fatal("grown queue not empty after draining")
	}
}

// checkCalendar verifies the calendar's structure against the live slots,
// which it must hold exactly (slot i filed under live[i].key): every list is
// consistently doubly linked, each slot is on the list bucketOf names, with
// its key cached; buckets behind the cursor are empty; bucketed keys sit
// below the overflow threshold and overflow keys at or above it; and the
// wheel holds at most two keys per bucket.
func checkCalendar(t *testing.T, q *calendarQueue, live []liveTask) {
	t.Helper()
	if q.n != len(live) {
		t.Fatalf("queue counts %d keys, live set has %d", q.n, len(live))
	}
	if q.n > 2*q.nb {
		t.Fatalf("%d keys in %d buckets: the wheel did not grow", q.n, q.nb)
	}
	seen := 0
	for b := 0; b <= q.nb; b++ {
		prev := int32(-1)
		for s := q.head[b]; s >= 0; s = q.next[s] {
			if b < q.cur {
				t.Fatalf("slot %d filed in bucket %d behind the cursor %d", s, b, q.cur)
			}
			if q.prev[s] != prev || q.bucketOf[s] != int32(b) {
				t.Fatalf("slot %d on list %d: prev %d (want %d), bucketOf %d", s, b, q.prev[s], prev, q.bucketOf[s])
			}
			if int(s) >= len(live) || q.key[s] != live[s].key {
				t.Fatalf("slot %d on list %d caches key %g, live slot does not match", s, b, q.key[s])
			}
			if overflow := b == q.nb; overflow != (q.key[s] >= q.limit) {
				t.Fatalf("slot %d key %g on list %d of %d: wrong side of the limit %g", s, q.key[s], b, q.nb, q.limit)
			}
			prev = s
			seen++
			if seen > q.n {
				t.Fatalf("lists hold more than the %d counted keys (cycle?)", q.n)
			}
		}
	}
	if seen != q.n {
		t.Fatalf("lists hold %d keys, queue counts %d", seen, q.n)
	}
}

// longestBucket returns the length of the longest bucket chain (the
// overflow list excluded): the scan cost bound of peekMin.
func longestBucket(q *calendarQueue) int {
	longest := 0
	for b := q.cur; b < q.nb; b++ {
		l := 0
		for s := q.head[b]; s >= 0; s = q.next[s] {
			l++
		}
		longest = max(longest, l)
	}
	return longest
}

// The flat intrusive-list layout under churn: a queue grown from 2 keys past
// 16k by insert, with removals interleaved at the head, middle and tail of
// bucket chains and in the overflow list, each followed by the engine's
// swap-delete renumber, stays structurally sound and drains in exactly the
// sorted (key, id) order of its contents.
func TestCalendarQueueGrowChurnDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q calendarQueue
	var live []liveTask
	nextID := 0
	add := func() {
		// Keys drift upward like virtual-clock keys (vnow + rem/w), so
		// later inserts keep landing past the window in the overflow list.
		drift := float64(nextID) / 64
		key := drift + rng.Float64()*8
		switch rng.Intn(6) {
		case 0:
			key = math.Floor(key) // collisions
		case 1:
			key = drift + 1e3 + rng.Float64()*1e3 // far past the window
		}
		live = append(live, liveTask{id: nextID, key: key})
		nextID++
		q.insert(len(live)-1, key)
	}
	// remove retires slot k exactly as Stepper.removeSlot does.
	remove := func(k int) {
		q.removeSlot(k)
		last := len(live) - 1
		if k != last {
			live[k] = live[last]
			q.renumber(last, k)
		}
		live = live[:last]
	}
	// pick returns a slot at the given chain position (0 head, 1 middle,
	// 2 tail) of a random non-trivial bucket chain, or an overflow slot for
	// position 3; -1 when there is none.
	pick := func(pos int) int32 {
		lists := []int{q.nb}
		if pos < 3 {
			lists = lists[:0]
			for b := q.cur; b < q.nb; b++ {
				// At least three keys, so head, middle and tail differ.
				if s := q.head[b]; s >= 0 && q.next[s] >= 0 && q.next[q.next[s]] >= 0 {
					lists = append(lists, b)
				}
			}
		}
		if len(lists) == 0 {
			return -1
		}
		chain := []int32{}
		for s := q.head[lists[rng.Intn(len(lists))]]; s >= 0; s = q.next[s] {
			if len(chain) == q.n {
				t.Fatalf("list longer than the %d counted keys (cycle?)", q.n)
			}
			chain = append(chain, s)
		}
		switch pos {
		case 0:
			return chain[0]
		case 1:
			return chain[len(chain)/2]
		case 2:
			return chain[len(chain)-1]
		}
		if len(chain) == 0 {
			return -1
		}
		return chain[rng.Intn(len(chain))]
	}

	q.reset(0, 1, 2)
	add()
	add()
	grows, removed := 0, [4]int{}
	for ops := 0; len(live) < 16500; ops++ {
		nb := q.nb
		add()
		if q.nb > nb {
			grows++
		}
		if ops%3 == 2 {
			pos := ops / 3 % 4
			if s := pick(pos); s >= 0 {
				remove(int(s))
				removed[pos]++
			}
		}
		if ops%2048 == 0 {
			checkCalendar(t, &q, live)
		}
	}
	checkCalendar(t, &q, live)
	t.Logf("%d keys, %d buckets, %d grows, removals by position %v", len(live), q.nb, grows, removed)
	if grows < 5 {
		t.Fatalf("queue grew %d times on its way to %d keys (buckets %d)", grows, len(live), q.nb)
	}
	for pos, c := range removed {
		if c == 0 {
			t.Fatalf("no removal exercised chain position %d: %v", pos, removed)
		}
	}

	ref := make([]liveTask, len(live))
	copy(ref, live)
	slices.SortFunc(ref, func(a, b liveTask) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, want := range ref {
		s, ok := q.peekMin(live)
		if !ok {
			t.Fatalf("queue empty after %d of %d pops", i, len(ref))
		}
		if live[s].key != want.key || live[s].id != want.id {
			t.Fatalf("pop %d: got (%g, %d), want (%g, %d)", i, live[s].key, live[s].id, want.key, want.id)
		}
		remove(s)
		if i%4096 == 0 {
			checkCalendar(t, &q, live)
		}
	}
	if _, ok := q.peekMin(live); ok || q.n != 0 {
		t.Fatalf("queue not empty after draining: n=%d", q.n)
	}
}

// The geometry regression guard for deep virtual-clock backlogs: the
// engine-hiback shape (wdeq, large-delta tasks arriving at rate 200 on P = 8,
// a backlog past 15k) from an empty start, where the first virtual segment
// sizes the wheel from a couple of keys. Sampled every 256 events, the wheel
// must hold at most two keys per bucket and no bucket chain may exceed 32 —
// a host-independent count, so a calendar that stops resizing (and its
// order-of-magnitude per-seed slowdowns) fails here rather than only in a
// timing run.
func TestCalendarGeometryDeepBacklog(t *testing.T) {
	const (
		seeds    = 20
		tasks    = 16384
		maxChain = 32
	)
	r := NewRunner()
	var res Result
	for seed := int64(1); seed <= seeds; seed++ {
		stream, err := workload.NewStream(workload.ArrivalConfig{
			Class:   workload.LargeDelta,
			P:       8,
			Process: workload.Poisson,
			Rate:    200,
		}, tasks, seed)
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.StartStream(&res, 8, WDEQPolicy{}, stream, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checks, worst := 0, 0
		for next := 256; ; {
			ok, err := st.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if res.Events < next {
				continue
			}
			next += 256
			if !st.virtual || !r.cal.valid {
				continue
			}
			checks++
			if r.cal.n > 2*r.cal.nb {
				t.Fatalf("seed %d, event %d: %d keys in %d buckets", seed, res.Events, r.cal.n, r.cal.nb)
			}
			l := longestBucket(&r.cal)
			if l > maxChain {
				t.Fatalf("seed %d, event %d: bucket chain of %d keys (%d keys, %d buckets), want ≤ %d",
					seed, res.Events, l, r.cal.n, r.cal.nb, maxChain)
			}
			worst = max(worst, l)
		}
		if err := st.Finish(); err != nil {
			t.Fatal(err)
		}
		if res.MaxAlive < 15000 || checks < 100 {
			t.Fatalf("seed %d: backlog %d with %d virtual checks — not the deep-backlog shape", seed, res.MaxAlive, checks)
		}
		t.Logf("seed %d: max alive %d, longest chain %d over %d checks", seed, res.MaxAlive, worst, checks)
	}
}

// FuzzEventQueueEquivalence drives random arrival/volume/curve sequences
// through the calendar-queue core and the retained naive reference and
// requires identical event sequences: same per-task completion rows, same
// aggregates, same path counters. The input bytes are decoded three per
// arrival (release gap, volume, weight/delta/curve selector), which keeps
// the corpus dense in schedules that hit key collisions, zero volumes and
// mode transitions.
func FuzzEventQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 255, 254, 253, 7, 7, 7})
	f.Add([]byte{10, 0, 200, 0, 0, 0, 31, 64, 9, 128, 130, 1, 90, 17, 3})
	f.Add([]byte{255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		arrivals := make([]Arrival, 0, len(data)/3)
		now := 0.0
		for i := 0; i+2 < len(data); i += 3 {
			now += float64(data[i]) / 64
			vol := float64(data[i+1]) / 16 // includes exact zeros
			sel := data[i+2]
			arrivals = append(arrivals, Arrival{
				Release: now,
				Tenant:  int(sel % 3),
				Task: schedule.Task{
					Volume: vol,
					Weight: 1 + float64(sel%7)/2,
					Delta:  1 + float64(sel%11),
					Curve:  float64(sel%4) / 4,
				},
			})
		}
		if len(arrivals) == 0 {
			t.Skip()
		}
		for _, policy := range []Policy{WDEQPolicy{}, DEQPolicy{}} {
			auto, statsAuto := runCore(t, CoreAuto, 8, policy, arrivals, nil)
			naive, statsNaive := runCore(t, CoreNaive, 8, policy, arrivals, nil)
			requireIdenticalRuns(t, policy.Name(), auto, naive)
			if statsAuto != statsNaive {
				t.Fatalf("%s: path counters diverge: %+v vs %+v", policy.Name(), statsAuto, statsNaive)
			}
		}
	})
}
