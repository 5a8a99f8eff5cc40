package engine

import "fmt"

// StepperSnapshot is a reusable checkpoint of a feed-mode Stepper's rest
// state: the clock, the live-task slots, the pending arrival and queued
// feeds, the decided rates, the run counters, and the probe bookkeeping —
// everything Restore needs to put a stepper (the same one, or a fresh one
// with the same configuration) back at exactly that instant of virtual time.
//
// The buffer is reusable in the allocation sense of the rest of the engine:
// Snapshot appends into the storage a previous Snapshot grew, so a warmed
// snapshot taken at a similar backlog performs zero heap allocations. That
// makes checkpointing cheap enough to sit on the hot path of the speculative
// cluster coordinator (internal/cluster), which checkpoints shards at every
// dispatch boundary it speculates across — and it is deliberately the same
// primitive a future elasticity/fault-tolerance layer needs for shard
// migration and crash recovery.
//
// What a snapshot does NOT capture, by design:
//
//   - The run configuration (capacity, policy, speedup model, Options).
//     Restore validates that the target stepper was started with the same
//     capacity, policy and model, and refuses otherwise.
//   - The per-run policy clone. Bundled policies keep only per-call scratch
//     that Allocate recomputes from the alive set it is handed, so restoring
//     the kernel state restores the decision sequence exactly; a custom
//     policy that accumulates history across Allocate calls is outside the
//     snapshot contract.
//   - Sink emissions and the decision trace. Rows already delivered to the
//     run's MetricSink are not retracted by Restore — callers that need
//     rollback buffer sink output themselves (the speculative coordinator
//     buffers per window) — and Snapshot refuses steppers running with
//     TraceDecisions.
//
// The zero value is ready to use. A StepperSnapshot is not safe for
// concurrent use, but it is independent of the stepper it was taken from:
// restoring into a different Runner's stepper is the fault-tolerance path
// (serialize, ship, reinstate) and is exercised by the fuzz harness.
type StepperSnapshot struct {
	valid bool

	// Configuration fingerprint of the run the snapshot was taken from,
	// validated on Restore.
	p      float64
	policy string
	model  string

	// Stepper scalars (see the Stepper field docs).
	now             float64
	admitted        int
	pending         Arrival
	pendingID       int
	havePending     bool
	closed          bool
	pulled          int
	fed             int
	lastFed         float64
	decided         bool
	dtComp          float64
	allocated       float64
	eventBound      int
	probeLastEvents int
	probeNext       float64
	probeFinal      bool
	done            bool

	// Event-core scalars. The index structures themselves (calendar queue,
	// eligibility and completion heaps) are never captured: they are pure
	// functions of the live slots plus these scalars, and Restore just marks
	// them for rebuild — extraction order is value-ordered, so a rebuilt
	// queue is observationally identical to the one that grew incrementally.
	virtual bool
	vnow    float64
	vrate   float64
	wsum    float64
	stats   QueueStats

	// Result aggregates at the snapshot instant.
	completed          int
	events             int
	maxAlive           int
	makespan           float64
	weightedFlow       float64
	weightedCompletion float64
	totalFlow          float64

	// Reused buffer copies: the undrained feed queue, the alive-task slots,
	// and the decided per-task rates.
	feedQ []Arrival
	live  []liveTask
	rates []float64
}

// Valid reports whether the snapshot holds a captured state.
func (s *StepperSnapshot) Valid() bool { return s.valid }

// Now returns the captured virtual time.
func (s *StepperSnapshot) Now() float64 { return s.now }

// Backlog returns the captured alive-task count — the same load signal
// Stepper.Backlog exposes, readable without restoring (the speculative
// coordinator fills router snapshots straight from checkpoints).
func (s *StepperSnapshot) Backlog() int { return len(s.live) }

// Allocated returns the capacity the policy had handed out at the captured
// decision (0 when the stepper was idle).
func (s *StepperSnapshot) Allocated() float64 {
	if !s.decided {
		return 0
	}
	return s.allocated
}

// Completed returns the captured completed-task count.
func (s *StepperSnapshot) Completed() int { return s.completed }

// Events returns the captured policy-invocation count. The delta between a
// stepper's live Events and a checkpoint's is the work a rollback discards —
// the speculative coordinator's waste metric.
func (s *StepperSnapshot) Events() int { return s.events }

// Snapshot captures the stepper's current rest state into snap, reusing
// snap's storage. The stepper must be feed-mode (StartFeed): a stream-driven
// stepper's unpulled source cannot be rewound, so its state is not
// restorable. Snapshot at a rest state is exact by construction — every
// event at or before Now() is committed, the next event has not begun — so
// Restore followed by identical feeds reproduces the continuation
// bit-for-bit (fuzzed in FuzzStepperSnapshotRoundTrip).
func (st *Stepper) Snapshot(snap *StepperSnapshot) error {
	if st.err != nil {
		return fmt.Errorf("engine: Snapshot of a failed stepper: %w", st.err)
	}
	if !st.feedable {
		return fmt.Errorf("engine: Snapshot requires a feed-mode stepper (StartFeed); a stream-driven source cannot be rewound")
	}
	if st.trace {
		return fmt.Errorf("engine: Snapshot with TraceDecisions is unsupported (the decision trace is not captured)")
	}

	snap.p = st.p
	snap.policy = st.res.Policy
	snap.model = st.res.Model

	snap.now = st.now
	snap.admitted = st.admitted
	snap.pending = st.pending
	snap.pendingID = st.pendingID
	snap.havePending = st.havePending
	snap.closed = st.closed
	snap.pulled = st.pulled
	snap.fed = st.fed
	snap.lastFed = st.lastFed
	snap.decided = st.decided
	snap.dtComp = st.dtComp
	snap.allocated = st.allocated
	snap.eventBound = st.eventBound
	snap.probeLastEvents = st.probeLastEvents
	snap.probeNext = st.probeNext
	snap.probeFinal = st.probeFinal
	snap.done = st.done
	snap.virtual = st.virtual
	snap.vnow = st.vnow
	snap.vrate = st.vrate
	snap.wsum = st.wsum
	snap.stats = st.stats

	res := st.res
	snap.completed = res.Completed
	snap.events = res.Events
	snap.maxAlive = res.MaxAlive
	snap.makespan = res.Makespan
	snap.weightedFlow = res.WeightedFlow
	snap.weightedCompletion = res.WeightedCompletion
	snap.totalFlow = res.TotalFlow

	snap.feedQ = append(snap.feedQ[:0], st.feedQ[st.feedHead:]...)
	snap.live = append(snap.live[:0], st.r.live...)
	snap.rates = append(snap.rates[:0], st.r.rates...)

	snap.valid = true
	return nil
}

// Restore reinstates a captured rest state into the stepper, which must be a
// feed-mode stepper started with the same capacity, policy and speedup model
// the snapshot was taken under (typically the same stepper rolling back, or
// a fresh StartFeed on another Runner). The stepper's Result is rewound to
// the snapshot's aggregates; its sink and probe keep their identities, but
// anything they observed after the snapshot instant is not retracted — that
// buffering is the caller's job. Like Snapshot, Restore performs no heap
// allocation once the target's scratch is warmed.
func (st *Stepper) Restore(snap *StepperSnapshot) error {
	if !snap.valid {
		return fmt.Errorf("engine: Restore from an empty snapshot")
	}
	if !st.feedable {
		return fmt.Errorf("engine: Restore requires a feed-mode stepper (StartFeed)")
	}
	if st.trace {
		return fmt.Errorf("engine: Restore into a stepper with TraceDecisions is unsupported")
	}
	if st.p != snap.p || st.res.Policy != snap.policy || st.res.Model != snap.model {
		return fmt.Errorf("engine: Restore into a stepper with a different configuration: have (p=%g, policy=%q, model=%q), snapshot has (p=%g, policy=%q, model=%q)",
			st.p, st.res.Policy, st.res.Model, snap.p, snap.policy, snap.model)
	}

	st.now = snap.now
	st.admitted = snap.admitted
	st.pending = snap.pending
	st.pendingID = snap.pendingID
	st.havePending = snap.havePending
	st.closed = snap.closed
	st.pulled = snap.pulled
	st.fed = snap.fed
	st.lastFed = snap.lastFed
	st.decided = snap.decided
	st.dtComp = snap.dtComp
	st.allocated = snap.allocated
	st.eventBound = snap.eventBound
	st.probeLastEvents = snap.probeLastEvents
	st.probeNext = snap.probeNext
	st.probeFinal = snap.probeFinal
	st.done = snap.done
	st.virtual = snap.virtual
	st.vnow = snap.vnow
	st.vrate = snap.vrate
	st.wsum = snap.wsum
	st.stats = snap.stats
	st.err = nil

	st.feedQ = append(st.feedQ[:0], snap.feedQ...)
	st.feedHead = 0

	r := st.r
	r.live = append(r.live[:0], snap.live...)
	r.rates = append(r.rates[:0], snap.rates...)
	// The index structures are rebuilt from the restored live slots on first
	// use (alloc-free once warmed).
	r.cal.valid = false
	r.drh.valid = false
	r.qth.valid = false
	r.statesValid = false

	res := st.res
	res.Completed = snap.completed
	res.Events = snap.events
	res.MaxAlive = snap.maxAlive
	res.Makespan = snap.makespan
	res.WeightedFlow = snap.weightedFlow
	res.WeightedCompletion = snap.weightedCompletion
	res.TotalFlow = snap.totalFlow
	return nil
}
