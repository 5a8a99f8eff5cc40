package cluster

import (
	"fmt"

	"github.com/malleable-sched/malleable/internal/engine"
)

// ShardState is the live snapshot a Router observes about one shard at
// dispatch time. The coordinator interleaves shard steppers in global event
// order, so every field is exact as of the arrival being routed — not a
// stale poll: Backlog is the shard's alive-set size at the arrival's release
// time, Allocated the capacity its policy handed out at its current
// decision.
type ShardState struct {
	// Shard is the shard index.
	Shard int
	// Now is the shard's virtual time (<= the arrival's release).
	Now float64
	// Backlog is the number of alive tasks on the shard right now.
	Backlog int
	// Allocated is the capacity the shard's policy handed out at its
	// current decision (0 while the shard is idle). A deep backlog with a
	// small Allocated means the alive tasks are degree-bound, not the
	// platform.
	Allocated float64
	// Completed is the number of tasks the shard has retired so far.
	Completed int
	// Dispatched is the number of arrivals routed to the shard so far.
	Dispatched int
}

// Router decides which shard an arriving task is dispatched to. Route is
// called once per arrival, in global release order, with the live ShardState
// snapshots; it must return an index in [0, len(shards)).
//
// Routers may hold state (a round-robin cursor, an RNG) but must be
// deterministic: the dispatch sequence has to be a pure function of the
// router's construction (name + seed) and the arrival stream, never of
// wall-clock time, map order or goroutine interleaving — that is what makes
// a cluster run byte-reproducible at any GOMAXPROCS. A Router is used by one
// coordinator at a time and need not be safe for concurrent use.
//
// The shards slice is read-only. The coordinator keeps it current
// incrementally — refreshing only the entries of shards that stepped or were
// fed since the previous dispatch — so a Route that wrote to it would
// corrupt the snapshots of every later dispatch.
type Router interface {
	// Name identifies the router in reports.
	Name() string
	// Route returns the destination shard for the arrival.
	Route(a engine.Arrival, shards []ShardState) int
}

// StateFreeRouter is the optional capability a Router declares when its
// Route decisions never read the per-shard snapshots — round-robin cycles a
// counter, hash-tenant hashes the arrival; neither looks at backlog. A
// parallel coordinator (Config.Workers >= 2) exploits the declaration: since
// routing such arrivals needs no exact fleet state, whole batches of
// dispatches proceed without synchronizing the shards, which is what buys
// near-linear scaling. The contract is strict: a Route that returns
// StateFree() true must not read ANY field of the shards slice beyond its
// length — the snapshots handed to it in batched mode are stale. Load-aware
// routers (least-backlog, po2) simply don't implement the interface and get
// an exact snapshot per dispatch from the sequential coordinator.
type StateFreeRouter interface {
	Router
	// StateFree reports that Route ignores the shards snapshot contents.
	StateFree() bool
}

// WindowStaleRouter is the opt-in capability of a state-reading router that
// accepts fleet views observed as of the last window boundary instead of
// exact dispatch-time snapshots. The coordinator's stale-batched mode
// (Config.StaleRouting) publishes one view per dispatch window of up to
// batchSize arrivals — the state every shard reached at the previous
// window's horizon, evolved only by the coordinator's own in-window
// dispatch bookkeeping — so the per-dispatch barrier disappears and the
// router runs through the same wide-window fast path as the state-free
// routers. The Router contract's determinism clause still applies
// unchanged: decisions must be a pure function of the handed ShardState
// slice and the router's seeded construction, which is what keeps a
// window-stale run byte-identical at any worker count (the views depend
// only on where the window boundaries fall in the stream, never on worker
// interleaving). Routers that need exact state simply don't implement the
// interface and keep the sequential coordinator's exact per-dispatch view.
type WindowStaleRouter interface {
	Router
	// WindowStale reports that Route accepts window-boundary views.
	WindowStale() bool
}

// splitmix is the deterministic RNG of the randomized routers: splitmix64,
// the same generator the engine's ShardSeed derivation uses, so a router's
// draws are a pure function of its seed.
type splitmix struct {
	state uint64
}

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RoundRobin dispatches arrivals to shards in cyclic order, blind to load.
// It is the baseline router: perfectly even in count, maximally naive about
// backlog, which is exactly what makes it the control in router comparisons.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin router starting at shard 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name returns "round-robin".
func (r *RoundRobin) Name() string { return "round-robin" }

// Route returns the next shard in cyclic order.
func (r *RoundRobin) Route(a engine.Arrival, shards []ShardState) int {
	i := r.next % len(shards)
	r.next = i + 1
	return i
}

// StateFree reports that round-robin never reads the fleet snapshots.
func (r *RoundRobin) StateFree() bool { return true }

// HashTenant pins every tenant to one shard by hashing the tenant index —
// the affinity router: a tenant's tasks never spread, so per-tenant state
// (caches, quotas) could live shard-local. Under a Zipf-skewed tenant mix
// this is the router that collapses: the head tenant's whole load lands on
// one shard.
type HashTenant struct {
	seed int64
}

// NewHashTenant returns a tenant-affinity router; the seed permutes the
// tenant→shard mapping deterministically.
func NewHashTenant(seed int64) *HashTenant { return &HashTenant{seed: seed} }

// Name returns "hash-tenant".
func (r *HashTenant) Name() string { return "hash-tenant" }

// Route hashes the arrival's tenant to a shard.
func (r *HashTenant) Route(a engine.Arrival, shards []ShardState) int {
	// One splitmix64 step over (tenant, seed): a fixed mixing function, not
	// a stream, so the mapping is stateless and stable for the whole run.
	s := splitmix{state: uint64(a.Tenant)<<32 ^ uint64(r.seed)}
	return int(s.next() % uint64(len(shards)))
}

// StateFree reports that hash-tenant never reads the fleet snapshots.
func (r *HashTenant) StateFree() bool { return true }

// LeastBacklog dispatches every arrival to the shard with the fewest alive
// tasks — the full-information greedy placement. It reads every shard's
// snapshot on every arrival (O(shards) per dispatch), which is the cost the
// power-of-two-choices router exists to avoid.
type LeastBacklog struct{}

// NewLeastBacklog returns the least-backlog router.
func NewLeastBacklog() *LeastBacklog { return &LeastBacklog{} }

// Name returns "least-backlog".
func (r *LeastBacklog) Name() string { return "least-backlog" }

// Route returns the lowest-indexed shard with the smallest backlog; ties
// break toward fewer dispatched arrivals so an all-idle fleet still spreads.
func (r *LeastBacklog) Route(a engine.Arrival, shards []ShardState) int {
	best := 0
	for i := 1; i < len(shards); i++ {
		if shards[i].Backlog < shards[best].Backlog ||
			(shards[i].Backlog == shards[best].Backlog && shards[i].Dispatched < shards[best].Dispatched) {
			best = i
		}
	}
	return best
}

// WindowStale opts least-backlog into stale-batched dispatch: its scan
// reads Backlog and Dispatched, and both stay meaningful on a
// window-boundary view — each in-window dispatch counts into its target's
// backlog estimate until the next boundary republishes exact state, so a
// window spreads across shards instead of dogpiling the boundary minimum.
func (r *LeastBacklog) WindowStale() bool { return true }

// PowerOfTwo samples two shards with its deterministic RNG and dispatches to
// the one with the smaller backlog — the classic power-of-two-choices
// placement: exponentially better tail behavior than blind random placement
// at O(1) sampled state per dispatch instead of least-backlog's O(shards)
// scan.
type PowerOfTwo struct {
	rng splitmix
}

// NewPowerOfTwo returns a power-of-two-choices router drawing from a
// splitmix64 stream seeded with seed: the same seed replays the same
// dispatch sequence, byte for byte.
func NewPowerOfTwo(seed int64) *PowerOfTwo {
	return &PowerOfTwo{rng: splitmix{state: uint64(seed)}}
}

// Name returns "po2".
func (r *PowerOfTwo) Name() string { return "po2" }

// Route samples two shards and returns the one with the smaller backlog
// (the first sample on a tie).
func (r *PowerOfTwo) Route(a engine.Arrival, shards []ShardState) int {
	n := uint64(len(shards))
	i := int(r.rng.next() % n)
	j := int(r.rng.next() % n)
	if shards[j].Backlog < shards[i].Backlog {
		return j
	}
	return i
}

// WindowStale opts power-of-two-choices into stale-batched dispatch: its
// two sampled backlogs tolerate boundary staleness by construction (the
// classic analysis assumes sampled, possibly outdated load), and the
// coordinator's in-window dispatch counting keeps repeated draws from
// piling onto one window's minimum.
func (r *PowerOfTwo) WindowStale() bool { return true }

// RouterNames lists the bundled router names RouterByName accepts.
func RouterNames() []string {
	return []string{"round-robin", "hash-tenant", "least-backlog", "po2"}
}

// RouterByName constructs a bundled router. The seed parameterizes the
// randomized routers (po2's sampling stream, hash-tenant's mapping
// permutation) and is ignored by the deterministic-by-construction ones.
func RouterByName(name string, seed int64) (Router, error) {
	switch name {
	case "round-robin":
		return NewRoundRobin(), nil
	case "hash-tenant":
		return NewHashTenant(seed), nil
	case "least-backlog":
		return NewLeastBacklog(), nil
	case "po2":
		return NewPowerOfTwo(seed), nil
	default:
		return nil, fmt.Errorf("cluster: unknown router %q (want one of %v)", name, RouterNames())
	}
}
