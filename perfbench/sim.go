package main

import (
	"fmt"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
)

// counts is the event-path breakdown of one simulation. On the cluster
// workloads the coordinator owns the steppers, so only events is known
// untraced; the traced run counts fallback events as Allocate calls.
type counts struct {
	events, virtual, fallback, transitions int
}

// simulator runs one simulation of a stream. l is nil for an untraced run;
// otherwise the simulation is timed layer by layer into l, which must be
// empty on entry.
type simulator interface {
	run(stream engine.ArrivalStream, workers int, l *layers) (*engine.LoadResult, counts, error)
}

func (w spec) newSimulator() simulator {
	if w.shards == 0 {
		return &engineSim{
			runner: engine.NewRunner(),
			agg:    engine.NewAggregateSink(),
			sketch: engine.NewSketchSink(0),
		}
	}
	return &clusterSim{w: w}
}

// engineSim drives one engine the way engine.RunStream does, one Step at a
// time, and merges its sinks into the same LoadResult a cluster reports.
// The runner and sinks are reused across simulations, as a caller running
// many simulations would.
type engineSim struct {
	runner *engine.Runner
	res    engine.Result
	agg    *engine.AggregateSink
	sketch *engine.SketchSink
	ids    idSink
}

func (e *engineSim) run(stream engine.ArrivalStream, _ int, l *layers) (*engine.LoadResult, counts, error) {
	e.agg.Reset()
	e.sketch.Reset()
	e.ids.reset()
	policy := engine.Policy(engine.WDEQPolicy{})
	sink := engine.MultiSink(e.agg, e.sketch, &e.ids)
	var timer *policyTimer
	if l != nil {
		stream = &timedStream{inner: stream, l: l}
		sink = &timedSink{inner: sink, l: l}
		policy, timer = newPolicyTimer(policy)
	}
	st, err := e.runner.StartStream(&e.res, procs, policy, stream, sink, engine.Options{})
	if err != nil {
		return nil, counts{}, err
	}
	if l != nil {
		l.nextOutsideStep += l.next.ns
	}
	for {
		var ok bool
		if l == nil {
			ok, err = st.Step()
		} else {
			t0 := clock()
			ok, err = st.Step()
			l.step.add(clock() - t0)
		}
		if err != nil {
			return nil, counts{}, err
		}
		if !ok {
			break
		}
	}
	if err := st.Finish(); err != nil {
		return nil, counts{}, err
	}
	if timer != nil {
		timer.collect(l)
	}
	res := e.res
	out, err := engine.MergeShards(procs, res.Policy, []engine.ShardRun{{Result: &res}},
		[]*engine.AggregateSink{e.agg}, []*engine.SketchSink{e.sketch})
	if err != nil {
		return nil, counts{}, err
	}
	qs := st.QueueStats()
	c := counts{events: res.Events, virtual: qs.VirtualEvents, fallback: qs.FallbackEvents, transitions: qs.Transitions}
	if err := e.ids.complete(res.Completed); err != nil {
		return nil, c, err
	}
	return out, c, nil
}

// idSink records which task IDs completed, so a check can tell a task that
// completed twice from one that never did.
type idSink struct {
	seen  []bool
	dupes int
}

func (s *idSink) reset() {
	clear(s.seen)
	s.dupes = 0
}

func (s *idSink) Observe(m engine.TaskMetrics) {
	for m.ID >= len(s.seen) {
		s.seen = append(s.seen, false)
	}
	if s.seen[m.ID] {
		s.dupes++
	}
	s.seen[m.ID] = true
}

// complete checks that IDs 0..n-1 each completed exactly once.
func (s *idSink) complete(n int) error {
	if s.dupes > 0 {
		return fmt.Errorf("%d tasks completed more than once", s.dupes)
	}
	for id := 0; id < n; id++ {
		if id >= len(s.seen) || !s.seen[id] {
			return fmt.Errorf("task %d never completed", id)
		}
	}
	return nil
}

// clusterSim runs one cluster.Run per simulation with a fresh router, as
// round-robin keeps a cursor across dispatches.
type clusterSim struct {
	w spec
}

func (c *clusterSim) run(stream engine.ArrivalStream, workers int, l *layers) (*engine.LoadResult, counts, error) {
	router, err := cluster.RouterByName(c.w.router, 0)
	if err != nil {
		return nil, counts{}, err
	}
	policy := engine.Policy(engine.WDEQPolicy{})
	var timer *policyTimer
	if l != nil {
		stream = &timedStream{inner: stream, l: l}
		router = &timedRouter{inner: router, l: l}
		policy, timer = newPolicyTimer(policy)
	}
	cfg := cluster.Config{Shards: c.w.shards, P: procs, Policy: policy, Router: router, Workers: workers}
	t0 := clock()
	res, err := cluster.Run(cfg, stream)
	if l != nil {
		l.run.add(clock() - t0)
	}
	if err != nil {
		return nil, counts{}, err
	}
	cnt := counts{events: res.Events}
	if timer != nil {
		timer.collect(l)
		cnt.fallback = l.allocate.calls
		cnt.virtual = res.Events - l.allocate.calls
	}
	return res, cnt, nil
}
