package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"github.com/malleable-sched/malleable/internal/engine"
)

// bench is one run of one workload: the simulator, the per-stream
// references and the tally of attempted and failed simulations. Each
// simulation is one closed-loop job: the next starts when the previous one
// has finished and been checked.
type bench struct {
	w    spec
	seed int64
	sim  simulator
	refs []*ref
	// log receives one line per failed simulation.
	log io.Writer

	attempted, failed int
}

// buildRefs draws every stream of the run and records its reference facts.
// For a cluster workload on a worker pool, the reference output comes from
// the sequential coordinator, so every pooled result is checked against it.
func (b *bench) buildRefs() error {
	b.refs = make([]*ref, streamsPerRun)
	for k := range b.refs {
		r, err := newRef(b.w, streamSeed(b.seed, k))
		if err != nil {
			return fmt.Errorf("stream %d: %w", k, err)
		}
		if b.w.shards > 0 && b.w.workers != 0 {
			_, res, _, err := b.simulateWith(b.w.newSimulator(), k, 0, nil)
			if err == nil {
				err = r.check(res)
			}
			if err != nil {
				return fmt.Errorf("stream %d: sequential reference: %w", k, err)
			}
		}
		b.refs[k] = r
	}
	return nil
}

// simulateWith times one simulation of stream k, stream construction
// included.
func (b *bench) simulateWith(sim simulator, k, workers int, l *layers) (time.Duration, *engine.LoadResult, counts, error) {
	t0 := time.Now()
	stream, err := b.w.stream(streamSeed(b.seed, k))
	if err != nil {
		return 0, nil, counts{}, err
	}
	res, c, err := sim.run(stream, workers, l)
	return time.Since(t0), res, c, err
}

func (b *bench) simulate(k, workers int, l *layers) (time.Duration, *engine.LoadResult, counts, error) {
	return b.simulateWith(b.sim, k, workers, l)
}

// record counts one attempted simulation and whether it failed.
func (b *bench) record(k int, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "stream %d: simulation failed: %v\n", k, err)
	}
}

// checked runs the output checks of one untraced simulation.
func (b *bench) checked(r *ref, res *engine.LoadResult, c counts, err error) error {
	if err != nil {
		return err
	}
	if err := r.check(res); err != nil {
		return err
	}
	r.untraced = c
	return nil
}

// loop runs whole passes over the run's streams until budget has elapsed,
// calling each for every stream in order, and returns the set-up time of
// every pass. Each pass starts with a fresh set-up, so set-ups are spread
// over the run like the simulations they are compared with.
func (b *bench) loop(budget time.Duration, each func(k int)) ([]float64, error) {
	if err := b.buildRefs(); err != nil {
		return nil, err
	}
	var setups []float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		setups = append(setups, b.setup(pass%streamsPerRun))
		for k := range b.refs {
			each(k)
		}
	}
	return setups, nil
}

// setup collects the heap, builds a new simulator and warms it up on stream
// k, and returns the seconds from the build to the end of the warm-up. The
// collection, which also returns freed memory to the operating system, keeps
// the simulator it replaces out of peak memory; the warm-up is checked and
// counted like any other simulation.
func (b *bench) setup(k int) float64 {
	b.sim = nil
	debug.FreeOSMemory()
	t0 := time.Now()
	sim := b.w.newSimulator()
	_, res, c, err := b.simulateWith(sim, k, b.w.workers, nil)
	d := time.Since(t0).Seconds()
	b.record(k, b.checked(b.refs[k], res, c, err))
	b.sim = sim
	return d
}

// measure is the untraced run: end-to-end metrics only.
func (b *bench) measure(budget time.Duration) ([]metric, error) {
	var walls []float64
	// best[k] is the fastest simulation of stream k.
	best := make([]float64, streamsPerRun)
	setups, err := b.loop(budget, func(k int) {
		d, res, c, err := b.simulate(k, b.w.workers, nil)
		walls = append(walls, d.Seconds())
		if best[k] == 0 || d.Seconds() < best[k] {
			best[k] = d.Seconds()
		}
		b.record(k, b.checked(b.refs[k], res, c, err))
	})
	if err != nil {
		return nil, err
	}

	var total, bestSum, flow, p99 float64
	for _, d := range walls {
		total += d
	}
	for _, d := range best {
		bestSum += d
	}
	streams := 0
	for _, r := range b.refs {
		if r.res == nil {
			continue // every simulation of the stream failed
		}
		flow += r.res.WeightedFlow / float64(r.n)
		p99 += r.res.Flow.P99
		streams++
	}
	if streams == 0 {
		return nil, fmt.Errorf("every simulation failed")
	}
	tailV, tailPct := tail(walls)
	return []metric{
		{name: "sim_s_best", value: bestSum / float64(len(best)), note: fmt.Sprintf("mean over %d streams of each stream's fastest of %d", len(best), len(walls)/len(best))},
		{name: "sim_s_min", value: slices.Min(walls), note: fmt.Sprintf("fastest of %d simulations", len(walls))},
		{name: "tasks_per_s", value: float64(tasksPerStream*len(walls)) / total},
		{name: "sim_s_p50", value: median(walls), note: fmt.Sprintf("%d simulations", len(walls))},
		{name: "sim_s_tail", value: tailV, note: fmt.Sprintf("p%.2f of %d simulations, 10 beyond it", tailPct, len(walls))},
		{name: "setup_s", value: median(setups), note: fmt.Sprintf("median of %d set-ups", len(setups))},
		{name: "peak_rss_mib", value: peakRSSMiB()},
		{name: "mean_weighted_flow", value: flow / float64(streams), note: fmt.Sprintf("mean over %d streams", streams)},
		{name: "flow_p99", value: p99 / float64(streams), note: fmt.Sprintf("mean over %d streams", streams)},
	}, nil
}

// traced is the traced run. Stream by stream it runs the workload untraced,
// then traced, then (cluster workloads) untraced at the twin worker count,
// so the three see the same inputs under the same host conditions.
func (b *bench) traced(budget time.Duration) ([]metric, error) {
	var (
		tot                      layers
		traced                   counts
		untracedWall, tracedWall time.Duration
		twinWall                 time.Duration
		sims, untracedSims       int
		maxAlive, imbalance      float64
		allocBytes, gcCycles     uint64
		ms0, ms1                 runtime.MemStats
	)
	_, err := b.loop(budget, func(k int) {
		r := b.refs[k]
		runtime.ReadMemStats(&ms0)
		d, res, c, err := b.simulate(k, b.w.workers, nil)
		runtime.ReadMemStats(&ms1)
		b.record(k, b.checked(r, res, c, err))
		untracedWall += d
		untracedSims++
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcCycles += uint64(ms1.NumGC - ms0.NumGC)

		var l layers
		d, res, c, err = b.simulate(k, b.w.workers, &l)
		if err == nil {
			err = b.checkTraced(r, res, c, &l)
		}
		b.record(k, err)
		tracedWall += d
		if err == nil {
			sims++
			tot.fold(&l)
			traced.events += c.events
			traced.virtual += c.virtual
			traced.fallback += c.fallback
			traced.transitions += c.transitions
			maxAlive += float64(res.PeakBacklog)
			if b.w.shards > 0 {
				imbalance += float64(res.MaxShardCompleted) / float64(res.MinShardCompleted)
			}
		}

		if b.w.shards > 0 {
			d, res, _, err = b.simulate(k, b.w.twinWorkers, nil)
			if err == nil {
				err = r.check(res)
			}
			b.record(k, err)
			twinWall += d
		}
	})
	if err != nil {
		return nil, err
	}
	if sims == 0 {
		return nil, fmt.Errorf("every traced simulation failed")
	}

	n := float64(sims)
	perSim := func(d time.Duration) float64 { return d.Seconds() / n }
	nsPer := func(d time.Duration, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(calls)
	}
	m := map[string]float64{
		"engine.events":                float64(traced.events) / n,
		"engine.virtual_events":        float64(traced.virtual) / n,
		"engine.fallback_events":       float64(traced.fallback) / n,
		"engine.transitions":           float64(traced.transitions) / n,
		"engine.max_alive":             maxAlive / n,
		"core.allocate_calls":          float64(tot.allocate.calls) / n,
		"core.allocate_s":              perSim(tot.allocate.ns),
		"core.ns_per_allocate":         nsPer(tot.allocate.ns, tot.allocate.calls),
		"workload.next_calls":          float64(tot.next.calls) / n,
		"workload.next_s":              perSim(tot.next.ns),
		"workload.ns_per_arrival":      nsPer(tot.next.ns, tot.next.calls),
		"runtime.alloc_bytes_per_task": float64(allocBytes) / float64(untracedSims*tasksPerStream),
		"runtime.gc_cycles":            float64(gcCycles) / float64(untracedSims),
		"trace.overhead_frac":          tracedWall.Seconds()/untracedWall.Seconds() - 1,
	}
	if tot.allocate.calls > 0 {
		m["core.alive_per_allocate"] = float64(tot.alive) / float64(tot.allocate.calls)
	}
	if b.w.shards == 0 {
		self := tot.step.ns - tot.allocate.ns - tot.observe.ns - (tot.next.ns - tot.nextOutsideStep)
		m["engine.step_calls"] = float64(tot.step.calls) / n
		m["engine.step_s"] = perSim(tot.step.ns)
		m["engine.self_s"] = perSim(self)
		m["engine.ns_per_event"] = nsPer(tot.step.ns, traced.events)
		m["sink.observe_calls"] = float64(tot.observe.calls) / n
		m["sink.observe_s"] = perSim(tot.observe.ns)
	} else {
		residual := tot.run.ns - tot.route.ns - tot.allocate.ns - tot.next.ns
		m["cluster.route_calls"] = float64(tot.route.calls) / n
		m["cluster.route_s"] = perSim(tot.route.ns)
		m["cluster.ns_per_route"] = nsPer(tot.route.ns, tot.route.calls)
		m["cluster.run_s"] = perSim(tot.run.ns)
		m["cluster.residual_s"] = perSim(residual)
		m["cluster.peak_backlog"] = maxAlive / n
		m["cluster.shard_imbalance"] = imbalance / n
		// Workers 0 wall over Workers 2 wall on the same streams.
		if b.w.workers == 0 {
			m["cluster.pool_speedup"] = untracedWall.Seconds() / twinWall.Seconds()
		} else {
			m["cluster.pool_speedup"] = twinWall.Seconds() / untracedWall.Seconds()
		}
	}
	out := make([]metric, 0, len(perLayer))
	for _, d := range perLayer {
		// A layer the workload does not reach reads 0 (see NOTES.md).
		out = append(out, metric{name: d.name, value: m[d.name]})
	}
	return out, nil
}

// checkTraced checks a traced simulation: the usual output checks, plus
// event-path counts equal to the untraced simulation's, so a wrapper that
// knocked the engine off its fast path fails the run instead of skewing it.
func (b *bench) checkTraced(r *ref, res *engine.LoadResult, c counts, l *layers) error {
	if err := r.check(res); err != nil {
		return err
	}
	u := r.untraced
	if b.w.shards > 0 {
		// The coordinator owns the steppers: untraced, only the total is
		// observable; traced, fallback events are the Allocate calls.
		u.virtual, u.fallback = c.virtual, c.fallback
	} else if l.allocate.calls != c.fallback {
		return fmt.Errorf("traced run made %d Allocate calls for %d fallback events", l.allocate.calls, c.fallback)
	}
	if c != u {
		return fmt.Errorf("traced event counts %+v differ from untraced %+v", c, u)
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest sample with at least ten samples beyond it, and
// its percentile; with ten or fewer samples, the maximum.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}
