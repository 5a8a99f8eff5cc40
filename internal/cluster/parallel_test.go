package cluster

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/workload"
)

// recordingStateFree is a recordingRouter that preserves the wrapped
// router's state-free declaration, so recording the dispatch sequence does
// not silently demote a batched-mode run to the sequential coordinator.
type recordingStateFree struct {
	recordingRouter
}

func (r *recordingStateFree) StateFree() bool { return true }

// recordingWindowStale likewise preserves the wrapped router's window-stale
// declaration, so recording does not demote a stale-batched run either.
type recordingWindowStale struct {
	recordingRouter
}

func (r *recordingWindowStale) WindowStale() bool { return true }

// record wraps a router with dispatch recording, keeping the StateFree and
// WindowStale capabilities intact.
func record(inner Router) (Router, *recordingRouter) {
	if sf, ok := inner.(StateFreeRouter); ok && sf.StateFree() {
		r := &recordingStateFree{recordingRouter{inner: inner}}
		return r, &r.recordingRouter
	}
	if ws, ok := inner.(WindowStaleRouter); ok && ws.WindowStale() {
		r := &recordingWindowStale{recordingRouter{inner: inner}}
		return r, &r.recordingRouter
	}
	r := &recordingRouter{inner: inner}
	return r, r
}

// parallelCapture is everything observable about one cluster run: the
// dispatch sequence, the full merged result (JSON blob, so every field
// participates in the comparison), every shared-sink row in order, and the
// fleet-probe trace.
type parallelCapture struct {
	dispatch []int
	blob     []byte
	rows     []engine.TaskMetrics
	probe    *fleetProbe
	res      *engine.LoadResult
}

func captureRun(t *testing.T, cfg Config, stream engine.ArrivalStream, withProbe bool) parallelCapture {
	t.Helper()
	routed, rec := record(cfg.Router)
	cfg.Router = routed
	var rows []engine.TaskMetrics
	cfg.Sink = sinkFunc(func(m engine.TaskMetrics) { rows = append(rows, m) })
	var probe *fleetProbe
	if withProbe {
		probe = &fleetProbe{}
		cfg.Probe = probe
	}
	res, err := Run(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return parallelCapture{dispatch: rec.dispatch, blob: blob, rows: rows, probe: probe, res: res}
}

func assertCapturesEqual(t *testing.T, want, got parallelCapture, label string) {
	t.Helper()
	if len(want.dispatch) != len(got.dispatch) {
		t.Fatalf("%s: dispatch count %d vs sequential %d", label, len(got.dispatch), len(want.dispatch))
	}
	for i := range want.dispatch {
		if want.dispatch[i] != got.dispatch[i] {
			t.Fatalf("%s: dispatch %d routed to shard %d, sequential chose %d", label, i, got.dispatch[i], want.dispatch[i])
		}
	}
	if string(want.blob) != string(got.blob) {
		t.Fatalf("%s: merged LoadResult differs from the sequential coordinator's", label)
	}
	if len(want.rows) != len(got.rows) {
		t.Fatalf("%s: shared sink saw %d rows, sequential %d", label, len(got.rows), len(want.rows))
	}
	for i := range want.rows {
		if want.rows[i] != got.rows[i] {
			t.Fatalf("%s: sink row %d = %+v, sequential %+v", label, i, got.rows[i], want.rows[i])
		}
	}
	if (want.probe == nil) != (got.probe == nil) {
		t.Fatalf("%s: probe presence mismatch", label)
	}
	if want.probe != nil {
		if len(want.probe.times) != len(got.probe.times) {
			t.Fatalf("%s: probe fired %d times, sequential %d", label, len(got.probe.times), len(want.probe.times))
		}
		for i := range want.probe.times {
			if want.probe.times[i] != got.probe.times[i] ||
				want.probe.dispatched[i] != got.probe.dispatched[i] ||
				want.probe.backlogs[i] != got.probe.backlogs[i] ||
				want.probe.completed[i] != got.probe.completed[i] {
				t.Fatalf("%s: probe observation %d differs from sequential", label, i)
			}
		}
	}
}

// The tentpole contract: a parallel cluster run is byte-identical to the
// sequential coordinator at ANY worker count — dispatch sequence, merged
// LoadResult, shared-sink order, fleet-probe trace — for every bundled
// router, with and without a fleet probe (the probe pins the per-dispatch
// window even for state-free routers, so both parallel modes are exercised).
func TestParallelMatchesSequentialByteForByte(t *testing.T) {
	const n, shards, seed = 3000, 4, 7
	newStream := func() engine.ArrivalStream {
		s, err := workload.NewStream(skewedConfig(60.8), n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	newRouter := func(name string) Router {
		r, err := RouterByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, router := range RouterNames() {
		for _, withProbe := range []bool{false, true} {
			mode := "noprobe"
			if withProbe {
				mode = "probe"
			}
			t.Run(fmt.Sprintf("%s/%s", router, mode), func(t *testing.T) {
				base := Config{Shards: shards, P: 8, Policy: wdeq(t)}
				base.Router = newRouter(router)
				seq := captureRun(t, base, newStream(), withProbe)
				if len(seq.dispatch) != n {
					t.Fatalf("sequential run routed %d arrivals, want %d", len(seq.dispatch), n)
				}
				for _, workers := range []int{1, 2, 3, shards, 16} {
					cfg := base
					cfg.Router = newRouter(router)
					cfg.Workers = workers
					par := captureRun(t, cfg, newStream(), withProbe)
					assertCapturesEqual(t, seq, par, fmt.Sprintf("workers=%d", workers))
				}
			})
		}
	}
}

// sliceStream adapts an arrival slice to an ArrivalStream.
func sliceStream(arrs []engine.Arrival) engine.ArrivalStream {
	pos := 0
	return streamFunc(func() (engine.Arrival, bool, error) {
		if pos >= len(arrs) {
			return engine.Arrival{}, false, nil
		}
		a := arrs[pos]
		pos++
		return a, true, nil
	})
}

// boundaryArrivals builds the adversarial stream for the window-edge tests:
// arrivals clustered on integer instants (eight per instant, so shard events
// collide with window horizons and with each other), every fourth task
// zero-volume (completes the instant it is admitted — exactly AT the window
// boundary), tenants cycling so hash-tenant spreads them.
func boundaryArrivals(n int) []engine.Arrival {
	arrs := make([]engine.Arrival, n)
	for i := range arrs {
		task := schedule.Task{Weight: 1 + float64(i%3), Volume: float64(1 + i%5), Delta: 2}
		if i%4 == 0 {
			task.Volume = 0 // zero-volume: admission and completion coincide
		}
		arrs[i] = engine.Arrival{
			Task:    task,
			Release: float64(i / 8), // eight simultaneous releases per instant
			Tenant:  i % 6,
		}
	}
	return arrs
}

// Window-boundary edge cases: zero-volume tasks completing exactly at the
// lookahead horizon, simultaneous events on several shards at the same
// instant, and equal-release runs crossing batch boundaries (n far exceeds
// batchSize). Every router, whichever run loop Workers selects for it, must
// still reproduce the sequential run bit for bit.
func TestParallelWindowBoundaryEdgeCases(t *testing.T) {
	const n, shards = 4 * batchSize, 3
	for _, router := range RouterNames() {
		t.Run(router, func(t *testing.T) {
			newRouter := func() Router {
				r, err := RouterByName(router, 5)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			base := Config{Shards: shards, P: 8, Policy: wdeq(t), Router: newRouter()}
			seq := captureRun(t, base, sliceStream(boundaryArrivals(n)), false)
			for _, workers := range []int{2, 3} {
				cfg := base
				cfg.Router = newRouter()
				cfg.Workers = workers
				par := captureRun(t, cfg, sliceStream(boundaryArrivals(n)), false)
				assertCapturesEqual(t, seq, par, fmt.Sprintf("workers=%d", workers))
			}
		})
	}
}

// Worker count beyond the shard count is capped, never wrong: 16 workers on
// 2 shards must match the sequential run exactly.
func TestParallelWorkersExceedShards(t *testing.T) {
	const n, shards = 2000, 2
	newStream := func() engine.ArrivalStream {
		s, err := workload.NewStream(skewedConfig(30), n, 13)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := Config{Shards: shards, P: 8, Policy: wdeq(t), Router: NewLeastBacklog()}
	seq := captureRun(t, base, newStream(), true)
	cfg := base
	cfg.Router = NewLeastBacklog()
	cfg.Workers = 16
	par := captureRun(t, cfg, newStream(), true)
	assertCapturesEqual(t, seq, par, "workers=16 shards=2")
}

// An engine-level probe (Options.Probe) interleaves every shard's rest
// states on the global timeline, which only the sequential coordinator can
// order; Workers must silently fall back and the probe trace must be
// identical to an explicitly sequential run's.
func TestParallelEngineProbeForcesSequential(t *testing.T) {
	const n, shards = 1500, 3
	type obs struct {
		now       float64
		completed int
		backlog   int
		done      bool
	}
	run := func(workers int) ([]obs, []byte) {
		var seen []obs
		probe := engine.ProbeFunc(func(s engine.Snapshot) {
			seen = append(seen, obs{now: s.Now, completed: s.Completed, backlog: s.Backlog, done: s.Done})
		})
		stream, err := workload.NewStream(skewedConfig(40), n, 31)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Shards: shards, P: 8, Policy: wdeq(t), Router: NewRoundRobin(),
			Workers: workers, Opts: engine.Options{Probe: probe},
		}, stream)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return seen, blob
	}
	seqObs, seqBlob := run(0)
	parObs, parBlob := run(4)
	if len(seqObs) == 0 {
		t.Fatal("engine probe never fired")
	}
	if len(seqObs) != len(parObs) {
		t.Fatalf("probe fired %d times with workers, %d sequentially", len(parObs), len(seqObs))
	}
	for i := range seqObs {
		if seqObs[i] != parObs[i] {
			t.Fatalf("probe observation %d: %+v with workers vs %+v sequential", i, parObs[i], seqObs[i])
		}
	}
	if string(seqBlob) != string(parBlob) {
		t.Fatal("results differ between Workers=4 (probe fallback) and sequential run")
	}
}

// goroutineRouter records the goroutine count inside Route, so a test can
// tell whether pool workers were running while the router decided. It
// declares no capability, so the coordinator treats it as an exact-view
// state-reading router.
type goroutineRouter struct {
	inner Router
	peak  int
}

func (r *goroutineRouter) Name() string { return r.inner.Name() }
func (r *goroutineRouter) Route(a engine.Arrival, shards []ShardState) int {
	r.peak = max(r.peak, runtime.NumGoroutine())
	return r.inner.Route(a, shards)
}

// stateFreeGoroutineRouter is a goroutineRouter declaring StateFree.
type stateFreeGoroutineRouter struct {
	goroutineRouter
}

func (r *stateFreeGoroutineRouter) StateFree() bool { return true }

// windowStaleGoroutineRouter is a goroutineRouter declaring WindowStale.
type windowStaleGoroutineRouter struct {
	goroutineRouter
}

func (r *windowStaleGoroutineRouter) WindowStale() bool { return true }

// countGoroutines wraps a router with goroutine counting, keeping the
// StateFree and WindowStale capabilities intact (as record does).
func countGoroutines(inner Router) (Router, *goroutineRouter) {
	if sf, ok := inner.(StateFreeRouter); ok && sf.StateFree() {
		r := &stateFreeGoroutineRouter{goroutineRouter{inner: inner}}
		return r, &r.goroutineRouter
	}
	if ws, ok := inner.(WindowStaleRouter); ok && ws.WindowStale() {
		r := &windowStaleGoroutineRouter{goroutineRouter{inner: inner}}
		return r, &r.goroutineRouter
	}
	r := &goroutineRouter{inner: inner}
	return r, r
}

// settledGoroutines waits for the goroutine count to fall back to idle (a
// finished run's pool workers may still be returning) and returns it. A
// pool that never retires its workers fails the test.
func settledGoroutines(t *testing.T, idle int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > idle {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, %d when idle: a finished run left workers behind", runtime.NumGoroutine(), idle)
		}
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// The selection rule, one configuration per case: StaleRouting with a
// window-stale router runs stale-batched (views published per window, a pool
// at Workers >= 2); a state-free router with Workers >= 2 and no probe runs
// batched (its Route sees the pool workers); everything else — exact-view
// state-reading routers at any Workers, a probed state-free router, Workers
// below 2 — runs the sequential coordinator, so no pool goroutine is alive
// while the router decides. Whatever loop runs, the output is byte-identical
// to the same configuration at Workers 0.
func TestExactViewRouterRunsSequentially(t *testing.T) {
	const n, shards = 2000, 8
	type loop int
	const (
		sequential loop = iota
		batched
		staleBatched
	)
	cases := []struct {
		name        string
		router      string
		workers     int
		fleetProbe  bool
		engineProbe bool
		trace       bool
		stale       bool
		want        loop
	}{
		{name: "least-backlog/workers=1", router: "least-backlog", workers: 1, want: sequential},
		{name: "least-backlog/workers=2", router: "least-backlog", workers: 2, want: sequential},
		{name: "least-backlog/workers=8", router: "least-backlog", workers: 8, want: sequential},
		{name: "po2/workers=1", router: "po2", workers: 1, want: sequential},
		{name: "po2/workers=2", router: "po2", workers: 2, want: sequential},
		{name: "po2/workers=8", router: "po2", workers: 8, want: sequential},
		{name: "least-backlog/workers=8/fleet-probe", router: "least-backlog", workers: 8, fleetProbe: true, want: sequential},
		{name: "least-backlog/workers=8/trace", router: "least-backlog", workers: 8, trace: true, want: sequential},
		{name: "least-backlog/workers=8/engine-probe", router: "least-backlog", workers: 8, engineProbe: true, want: sequential},
		{name: "round-robin/workers=1", router: "round-robin", workers: 1, want: sequential},
		{name: "hash-tenant/workers=1", router: "hash-tenant", workers: 1, want: sequential},
		{name: "round-robin/workers=8/fleet-probe", router: "round-robin", workers: 8, fleetProbe: true, want: sequential},
		{name: "hash-tenant/workers=8/fleet-probe", router: "hash-tenant", workers: 8, fleetProbe: true, want: sequential},
		{name: "round-robin/workers=8/engine-probe", router: "round-robin", workers: 8, engineProbe: true, want: sequential},
		{name: "round-robin/workers=2", router: "round-robin", workers: 2, want: batched},
		{name: "round-robin/workers=8", router: "round-robin", workers: 8, want: batched},
		{name: "hash-tenant/workers=2", router: "hash-tenant", workers: 2, want: batched},
		{name: "hash-tenant/workers=8", router: "hash-tenant", workers: 8, want: batched},
		{name: "round-robin/workers=8/trace", router: "round-robin", workers: 8, trace: true, want: batched},
		{name: "round-robin/workers=8/stale", router: "round-robin", workers: 8, stale: true, want: batched},
		{name: "hash-tenant/workers=8/stale", router: "hash-tenant", workers: 8, stale: true, want: batched},
		{name: "least-backlog/workers=1/stale", router: "least-backlog", workers: 1, stale: true, want: staleBatched},
		{name: "least-backlog/workers=8/stale", router: "least-backlog", workers: 8, stale: true, want: staleBatched},
		{name: "po2/workers=1/stale", router: "po2", workers: 1, stale: true, want: staleBatched},
		{name: "po2/workers=8/stale", router: "po2", workers: 8, stale: true, want: staleBatched},
	}
	idle := runtime.NumGoroutine() + 1 // the subtest's own goroutine
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) (parallelCapture, int, int) {
				inner, err := RouterByName(tc.router, 3)
				if err != nil {
					t.Fatal(err)
				}
				r, counter := countGoroutines(inner)
				cfg := Config{Shards: shards, P: 8, Policy: wdeq(t), Router: r, Workers: workers, StaleRouting: tc.stale}
				cfg.Opts.TraceDecisions = tc.trace
				if tc.engineProbe {
					cfg.Opts.Probe = engine.ProbeFunc(func(engine.Snapshot) {})
				}
				stream, err := workload.NewStream(skewedConfig(115.2), n, 17)
				if err != nil {
					t.Fatal(err)
				}
				before := settledGoroutines(t, idle)
				got := captureRun(t, cfg, stream, tc.fleetProbe)
				return got, before, counter.peak
			}
			ref, _, _ := run(0)
			got, before, peak := run(tc.workers)
			assertCapturesEqual(t, ref, got, fmt.Sprintf("workers=%d", tc.workers))

			pool := min(tc.workers, shards)
			if tc.want == sequential || pool < 2 {
				if peak > before {
					t.Errorf("%d goroutines inside Route, %d before Run: a worker pool ran", peak, before)
				}
			} else if peak < before+pool {
				t.Errorf("%d goroutines inside Route, %d before Run: want the %d pool workers visible", peak, before, pool)
			}
			if views := got.res.StaleViews; (tc.want == staleBatched) != (views > 0) {
				t.Errorf("%d stale views published: stale-batched ran = %v, want %v", views, views > 0, tc.want == staleBatched)
			}
		})
	}
}

// A 64-shard fleet under an exact-view router is the sequential
// coordinator's O(shards)-per-dispatch envelope: it must match the Workers 0
// run byte for byte, fleet-probe trace included, with more workers than
// most hosts have cores.
func TestExactViewRouter64ShardFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("64-shard fleet comparison is slow under -short")
	}
	const n, shards, seed = 8192, 64, 411
	newStream := func() engine.ArrivalStream {
		s, err := workload.NewStream(skewedConfig(900), n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, router := range []string{"least-backlog", "po2"} {
		t.Run(router, func(t *testing.T) {
			newRouter := func() Router {
				r, err := RouterByName(router, 9)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			base := Config{Shards: shards, P: 8, Policy: wdeq(t), Router: newRouter()}
			seq := captureRun(t, base, newStream(), true)
			if len(seq.dispatch) != n || seq.res.TotalTasks != n {
				t.Fatalf("routed %d arrivals, completed %d, want %d", len(seq.dispatch), seq.res.TotalTasks, n)
			}
			for _, workers := range []int{8, shards} {
				cfg := base
				cfg.Router = newRouter()
				cfg.Workers = workers
				par := captureRun(t, cfg, newStream(), true)
				assertCapturesEqual(t, seq, par, fmt.Sprintf("64 shards workers=%d", workers))
			}
		})
	}
}

// Negative worker counts are a configuration error, not a silent default.
func TestParallelNegativeWorkersRejected(t *testing.T) {
	stream := sliceStream(boundaryArrivals(8))
	_, err := Run(Config{Shards: 2, P: 8, Policy: wdeq(t), Workers: -1}, stream)
	if err == nil {
		t.Fatal("Workers=-1 accepted")
	}
}
