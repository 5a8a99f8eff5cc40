package main

import (
	"fmt"

	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/workload"
)

// Every workload runs WDEQ with P processors per engine on streams of
// tasksPerStream tasks under the linear speedup model.
const (
	procs          = 8
	tasksPerStream = 16384
	// streamsPerRun is how many distinct seed-derived streams one run cycles
	// through. The flow metrics of a single stream vary by 5-6% (coefficient
	// of variation) from seed to seed; averaging 32 streams brings that
	// under 1%.
	streamsPerRun = 32
)

// spec is one named workload.
type spec struct {
	name string
	why  string
	// shards is the number of engines; 0 runs one engine driven directly
	// through Runner.StartStream and Stepper.Step, with no cluster layer.
	shards int
	class  workload.Class
	rate   float64
	// tenants and skew shape the tenant mix (workload.ParseTenants syntax).
	tenants string
	skew    float64
	// batchStart releases the first batchStart arrivals of the stream at
	// time 0 instead of at their Poisson times (see engine-hiback).
	batchStart int
	router     string
	// workers is the cluster coordinator's Workers setting; twinWorkers is
	// the setting the traced run compares it with for cluster.pool_speedup.
	workers, twinWorkers int
}

const fleetTenants = "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1"

var workloads = []spec{
	{
		// The event core alone: large-delta tasks (δ > P/2, unit weights)
		// keep every event with two or more alive tasks on the certified
		// virtual-clock path, and rate 200 outpaces the platform ~12x, so the
		// backlog climbs past 15k and every event is a calendar-queue
		// operation. Policy allocation and the cluster layer are bypassed.
		//
		// The first 16 arrivals are released together at time 0. From an
		// empty start the calendar queue keeps, for most of the run, the
		// bucket window it sized from the first two completion keys, so host
		// time per simulation ranged 4.9-536 ms over 120 seeds (median 47 ms,
		// mean 108 ms) and no run-to-run figure was steady. A 16-task batch
		// sizes that first window from 16 keys: 65-105 ms over 20 seeds,
		// close to the empty-start mean and still well above the 5 ms of the
		// best windows, so a fix to the window sizing shows here as a gain.
		name:       "engine-hiback",
		why:        "one engine, 15k+ task backlog, >99% of events on the virtual-clock calendar queue; bypasses Allocate and the cluster layer",
		class:      workload.LargeDelta,
		rate:       200,
		batchStart: 16,
	},
	{
		// The policy-bound fleet: at offered load 0.9 over 8 shards about
		// 99% of events fall back to Allocate (WDEQ's ShareAllocationFunc),
		// and exact least-backlog routing reads fleet state on every
		// dispatch through the sequential coordinator.
		name:        "cluster-lb8",
		why:         "8 shards, exact least-backlog routing, sequential coordinator; ~99% of events call Allocate",
		shards:      8,
		class:       workload.Uniform,
		rate:        115.2,
		tenants:     fleetTenants,
		skew:        1.5,
		router:      "least-backlog",
		workers:     0,
		twinWorkers: 2,
	},
	{
		// The same stream and fleet through the other dispatch style: a
		// state-free router takes the batched FeedBatch path on a 2-worker
		// pool with one barrier per 512 dispatches, so a change that helps
		// per-dispatch routing at the batched path's cost (or the reverse)
		// shows on one of the two cluster workloads.
		name:        "cluster-rr8-batched",
		why:         "same stream and fleet, state-free round-robin on the batched FeedBatch path with 2 pool workers",
		shards:      8,
		class:       workload.Uniform,
		rate:        115.2,
		tenants:     fleetTenants,
		skew:        1.5,
		router:      "round-robin",
		workers:     2,
		twinWorkers: 0,
	},
}

func workloadByName(name string) (spec, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// streamSeed derives the seed of stream k of a run from the run's seed.
func streamSeed(seed int64, k int) int64 { return engine.ShardSeed(seed, k) }

// stream builds the arrival stream with the given seed.
func (w spec) stream(seed int64) (engine.ArrivalStream, error) {
	tenants, err := workload.ParseTenants(w.tenants)
	if err != nil {
		return nil, err
	}
	cfg := workload.ArrivalConfig{
		Class:      w.class,
		P:          procs,
		Process:    workload.Poisson,
		Rate:       w.rate,
		Tenants:    tenants,
		TenantSkew: w.skew,
	}
	s, err := workload.NewStream(cfg, tasksPerStream, seed)
	if err != nil {
		return nil, err
	}
	if w.batchStart > 0 {
		return &batchStart{src: s, left: w.batchStart}, nil
	}
	return s, nil
}

// batchStart releases the first arrivals of a stream at time 0.
type batchStart struct {
	src  engine.ArrivalStream
	left int
}

func (b *batchStart) Next() (engine.Arrival, bool, error) {
	a, ok, err := b.src.Next()
	if ok && b.left > 0 {
		a.Release = 0
		b.left--
	}
	return a, ok, err
}
