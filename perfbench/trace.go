package main

import (
	"sync"
	"time"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
)

// The traced run times calls into each layer's public functions from here,
// outside the program: Stepper.Step, Policy.Allocate, Router.Route,
// ArrivalStream.Next, MetricSink.Observe and cluster.Run. Each wrapper keeps
// the capabilities of the value it wraps, because the program selects its
// fast paths by them: a policy that lost EqualShareCertifier would push
// engine-hiback off the virtual-clock path, and a router that lost
// StateFreeRouter would drop cluster-rr8-batched from the batched mode.

// epoch anchors clock. time.Now reads the wall clock and the monotonic
// clock; time.Since reads only the latter, which halves the cost of a timed
// call on hosts where a clock read is slow.
var epoch = time.Now()

// clock returns monotonic time since epoch.
func clock() time.Duration { return time.Since(epoch) }

// span accumulates the calls into one layer function and their wall time.
type span struct {
	calls int
	ns    time.Duration
}

func (s *span) add(d time.Duration) {
	s.calls++
	s.ns += d
}

func (s *span) fold(o span) {
	s.calls += o.calls
	s.ns += o.ns
}

// layers is what one or more traced simulations spent in each layer.
type layers struct {
	step, allocate, route, next, observe, run span
	// nextOutsideStep is the Next time StartStream spent before the first
	// Step, which Step's self time must not subtract.
	nextOutsideStep time.Duration
	// alive sums the alive-set size over Allocate calls.
	alive int
}

func (l *layers) fold(o *layers) {
	l.step.fold(o.step)
	l.allocate.fold(o.allocate)
	l.route.fold(o.route)
	l.next.fold(o.next)
	l.observe.fold(o.observe)
	l.run.fold(o.run)
	l.nextOutsideStep += o.nextOutsideStep
	l.alive += o.alive
}

// timedStream times ArrivalStream.Next. Only the coordinator (or the single
// engine) pulls from it, so it needs no lock.
type timedStream struct {
	inner engine.ArrivalStream
	l     *layers
}

func (s *timedStream) Next() (engine.Arrival, bool, error) {
	t0 := clock()
	a, ok, err := s.inner.Next()
	s.l.next.add(clock() - t0)
	return a, ok, err
}

// timedSink times MetricSink.Observe on the single-engine workload.
type timedSink struct {
	inner engine.MetricSink
	l     *layers
}

func (s *timedSink) Observe(m engine.TaskMetrics) {
	t0 := clock()
	s.inner.Observe(m)
	s.l.observe.add(clock() - t0)
}

// timedRouter times Router.Route; the coordinator calls it from one
// goroutine. It forwards both dispatch capabilities of the wrapped router.
type timedRouter struct {
	inner cluster.Router
	l     *layers
}

func (r *timedRouter) Name() string { return r.inner.Name() }

func (r *timedRouter) Route(a engine.Arrival, shards []cluster.ShardState) int {
	t0 := clock()
	i := r.inner.Route(a, shards)
	r.l.route.add(clock() - t0)
	return i
}

func (r *timedRouter) StateFree() bool {
	sf, ok := r.inner.(cluster.StateFreeRouter)
	return ok && sf.StateFree()
}

func (r *timedRouter) WindowStale() bool {
	ws, ok := r.inner.(cluster.WindowStaleRouter)
	return ok && ws.WindowStale()
}

// policyTimer times Policy.Allocate. The engine clones a RunCloner policy
// once per run, so every shard gets its own clone and accumulator: shards
// advanced concurrently on pool workers never share a counter.
type policyTimer struct {
	mu   sync.Mutex
	runs []*timedPolicy
}

// newPolicyTimer returns the policy to hand the program and the timer that
// collects its per-run clones.
func newPolicyTimer(inner engine.Policy) (engine.Policy, *policyTimer) {
	t := &policyTimer{}
	return t.wrap(inner), t
}

// wrap returns a timed policy that implements EqualShareCertifier exactly
// when inner does.
func (t *policyTimer) wrap(inner engine.Policy) engine.Policy {
	p := &timedPolicy{inner: inner, timer: t}
	t.mu.Lock()
	t.runs = append(t.runs, p)
	t.mu.Unlock()
	if c, ok := inner.(engine.EqualShareCertifier); ok {
		return certifiedPolicy{p, c}
	}
	return p
}

// collect folds every clone's Allocate time into l. Call it only after the
// run that used the policy has returned.
func (t *policyTimer) collect(l *layers) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.runs {
		l.allocate.fold(p.allocate)
		l.alive += p.alive
	}
}

type timedPolicy struct {
	inner    engine.Policy
	timer    *policyTimer
	allocate span
	alive    int
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Allocate(capacity float64, alive []engine.TaskState, dst []float64) []float64 {
	t0 := clock()
	dst = p.inner.Allocate(capacity, alive, dst)
	p.allocate.add(clock() - t0)
	p.alive += len(alive)
	return dst
}

// CloneForRun gives each engine run its own accumulator, cloning the inner
// policy too when it keeps per-run scratch.
func (p *timedPolicy) CloneForRun() engine.Policy {
	inner := p.inner
	if c, ok := inner.(engine.RunCloner); ok {
		inner = c.CloneForRun()
	}
	return p.timer.wrap(inner)
}

type certifiedPolicy struct {
	*timedPolicy
	cert engine.EqualShareCertifier
}

func (p certifiedPolicy) EqualShareWeight(w float64) float64 { return p.cert.EqualShareWeight(w) }
