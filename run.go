package malleable

import (
	"fmt"
	"sort"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
)

// RunSpec describes one online run for Run — the single entry point that
// replaced the Run* function family (see the migration table in the package
// documentation). A spec names the platform and policy, exactly one arrival
// source, and an optional topology: no topology runs one engine, a Router
// runs a routed cluster, a Source runs independent shards. Everything else —
// speedup model, sinks, probes, worker count — is orthogonal configuration,
// the same fields whatever the topology.
type RunSpec struct {
	// P is the platform capacity (per shard, when there are shards).
	P float64
	// Policy is the online allocation policy (OnlinePolicyByName or custom).
	Policy OnlinePolicy

	// Exactly one of Arrivals, Stream and Source supplies the workload.
	//
	// Arrivals is a materialized workload (GenerateArrivals or hand-built).
	// It is the only source that retains per-task rows: the result's
	// Shards[0].Result carries the full task table and exact flow quantiles.
	// Arrivals may be unsorted on the single-engine path; a Router requires
	// them sorted by release (the cluster dispatches in release order).
	Arrivals []Arrival
	// Stream is a pulled workload (StreamArrivals, a trace reader, or any
	// ArrivalStream) consumed in O(alive tasks) memory: per-task rows go to
	// Sink instead of being retained and flow quantiles come from a merged
	// sketch (RunResult.FlowApprox).
	Stream ArrivalStream
	// Source gives every shard its own independent stream — the decoupled
	// scaling topology, with no routing question. Shards engines run
	// concurrently, one goroutine each, seeded from Seed. Source runs cannot
	// take Sink or probes: the shards share no timeline, so no global
	// observation order exists.
	Source func(shard int, seed int64) (ArrivalStream, error)

	// Shards is the number of scheduler shards; 0 means 1. More than one
	// shard needs a Router (one global stream, routed) or a Source
	// (independent streams).
	Shards int
	// Router switches the run to cluster mode: ONE global timeline, each
	// arrival dispatched at its release time to the shard the router picks
	// from exact live backlog snapshots. Works with Arrivals or Stream.
	Router ClusterRouter
	// Workers >= 2 advances cluster shards concurrently on that many
	// goroutines (the coordinator included, clamped to GOMAXPROCS), one
	// dispatch window at a time. It applies to state-free routers and to
	// StaleRouting; an exact-view state-reading router, or any run with a
	// probe (Probe or FleetProbe), runs sequentially. Every byte of output
	// is identical at every Workers setting — the knob trades goroutines
	// for wall-clock time only. Workers without a Router is an error,
	// because only the cluster coordinator has shards to advance together.
	Workers int
	// StaleRouting switches a cluster run (Router set) to the stale-batched
	// coordinator: the router observes fleet state as of the last dispatch
	// window boundary — an epoch-published view, refreshed once per window —
	// instead of exact dispatch-time snapshots, which removes the
	// per-dispatch fleet barrier entirely. Output is deterministic and
	// byte-identical at every Workers setting, but it is a different
	// (window-stale) schedule than the exact-view coordinator's. Requires a
	// router with the window-stale capability (least-backlog, po2); state-
	// free routers ignore the flag. Incompatible with Probe. The result's StaleViews/StaleWindow report
	// the view cadence.
	StaleRouting bool
	// Prefetch overlaps arrival generation or trace decoding with cluster
	// execution on a single producer goroutine, handing off fixed windows
	// of arrivals (see the workload prefetcher). Pure pipelining: every
	// byte of output is unchanged. Cluster mode only.
	Prefetch bool
	// Seed derives per-shard seeds in Source mode and is recorded in the
	// result's shard metadata otherwise.
	Seed int64

	// Model is the speedup model; nil means the paper's linear model.
	Model SpeedupModel
	// Sink observes every completed task. On a Stream run rows arrive as
	// tasks retire; on a cluster run they arrive in the fleet's global
	// completion order (ties by shard); on an Arrivals run they are replayed
	// after the run in completion order (ties by task ID).
	Sink MetricSink
	// Probe observes the engine's rest states (OnlineOptions.Probe). On a
	// cluster run it sees every shard's rest states interleaved on the
	// global timeline, which forces the sequential coordinator regardless
	// of Workers (the output bytes do not change, only the wall clock).
	Probe RunProbe
	// ProbeEveryEvents and ProbeInterval thin Probe exactly as in
	// OnlineOptions.
	ProbeEveryEvents int
	ProbeInterval    float64
	// FleetProbe observes a cluster run at dispatch time with the same
	// per-shard snapshots the router saw; ProbeEveryDispatches thins it.
	// Cluster mode only.
	FleetProbe ClusterProbe
	// ProbeEveryDispatches fires FleetProbe every k-th dispatch; 0 observes
	// every dispatch.
	ProbeEveryDispatches int
	// TraceDecisions and MaxEvents forward to OnlineOptions.
	TraceDecisions bool
	// MaxEvents bounds policy invocations per engine; 0 keeps the default
	// safety bound.
	MaxEvents int
}

// RunResult is the outcome of Run, whatever the topology: per-shard results
// plus the deterministically merged fleet metrics. Single-engine runs report
// as a one-shard fleet, so every spec reads back through one schema.
type RunResult = OnlineLoadResult

// options assembles the engine options shared by every topology.
func (spec RunSpec) options() OnlineOptions {
	return OnlineOptions{
		Model:            spec.Model,
		TraceDecisions:   spec.TraceDecisions,
		MaxEvents:        spec.MaxEvents,
		Probe:            spec.Probe,
		ProbeEveryEvents: spec.ProbeEveryEvents,
		ProbeInterval:    spec.ProbeInterval,
	}
}

// Run executes one online run described by spec: a single engine, a routed
// cluster (Router set; Workers parallelizes it without changing a byte of
// output) or independent shards (Source set). It is the only non-deprecated
// run entry point of the package; the migration table in the package
// documentation maps each legacy Run* function to its spec.
func Run(spec RunSpec) (*RunResult, error) {
	sources := 0
	if spec.Arrivals != nil {
		sources++
	}
	if spec.Stream != nil {
		sources++
	}
	if spec.Source != nil {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("malleable: RunSpec needs exactly one of Arrivals, Stream and Source, got %d", sources)
	}
	shards := spec.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 0 {
		return nil, fmt.Errorf("malleable: RunSpec.Shards = %d, want >= 0", shards)
	}
	if spec.Router != nil {
		return spec.runCluster(shards)
	}
	if spec.Workers != 0 {
		return nil, fmt.Errorf("malleable: RunSpec.Workers needs a Router: only the cluster coordinator has independent shards to advance in parallel")
	}
	if spec.StaleRouting {
		return nil, fmt.Errorf("malleable: RunSpec.StaleRouting stales a router's fleet view; set a Router")
	}
	if spec.Prefetch {
		return nil, fmt.Errorf("malleable: RunSpec.Prefetch pipelines the cluster coordinator's stream; set a Router")
	}
	if spec.FleetProbe != nil || spec.ProbeEveryDispatches != 0 {
		return nil, fmt.Errorf("malleable: RunSpec.FleetProbe observes a routed fleet; set a Router")
	}
	if spec.Source != nil {
		return spec.runShards(shards)
	}
	if shards != 1 {
		return nil, fmt.Errorf("malleable: %d shards need a Router (one routed stream) or a Source (independent streams)", shards)
	}
	if spec.Stream != nil {
		return spec.runStream()
	}
	return spec.runSlice()
}

// runCluster dispatches the spec's single global stream across a routed
// fleet. Arrivals adapt positionally — the cluster consumes them in release
// order, so unlike the single-engine slice path they must already be sorted.
func (spec RunSpec) runCluster(shards int) (*RunResult, error) {
	if spec.Source != nil {
		return nil, fmt.Errorf("malleable: a Router dispatches ONE global stream; use Arrivals or Stream, not Source")
	}
	stream := spec.Stream
	if stream == nil {
		stream = engine.NewSliceStream(spec.Arrivals)
	}
	return cluster.Run(cluster.Config{
		Shards:               shards,
		P:                    spec.P,
		Policy:               spec.Policy,
		Router:               spec.Router,
		Workers:              spec.Workers,
		StaleRouting:         spec.StaleRouting,
		Prefetch:             spec.Prefetch,
		Opts:                 spec.options(),
		Sink:                 spec.Sink,
		Probe:                spec.FleetProbe,
		ProbeEveryDispatches: spec.ProbeEveryDispatches,
	}, stream)
}

// runShards runs the independent-streams topology: no shared timeline, so
// sinks and probes have no deterministic order to observe and are rejected.
func (spec RunSpec) runShards(shards int) (*RunResult, error) {
	if spec.Sink != nil || spec.Probe != nil {
		return nil, fmt.Errorf("malleable: Source shards run concurrently with no shared timeline; Sink and Probe need a single-engine or cluster run")
	}
	return engine.RunShardsStreamWithOptions(spec.P, spec.Policy, spec.Source, shards, spec.Seed, spec.options())
}

// runStream runs one engine over the pulled stream, summarizing through
// aggregate and sketch sinks — the O(alive tasks) path.
func (spec RunSpec) runStream() (*RunResult, error) {
	agg := engine.NewAggregateSink()
	sk := engine.NewSketchSink(0)
	res := &engine.Result{}
	sink := engine.MultiSink(agg, sk, spec.Sink)
	if err := engine.NewRunner().RunStreamInto(res, spec.P, spec.Policy, spec.Stream, sink, spec.options()); err != nil {
		return nil, err
	}
	runs := []engine.ShardRun{{Shard: 0, Seed: spec.Seed, Result: res}}
	return engine.MergeShards(spec.P, spec.Policy.Name(), runs, []*engine.AggregateSink{agg}, []*engine.SketchSink{sk})
}

// runSlice runs one engine over the materialized workload with full row
// retention — exact quantiles, and the task table in Shards[0].Result.
func (spec RunSpec) runSlice() (*RunResult, error) {
	res := &engine.Result{}
	if err := engine.NewRunner().RunInto(res, spec.P, spec.Policy, spec.Arrivals, spec.options()); err != nil {
		return nil, err
	}
	if spec.Sink != nil {
		// The engine retained the rows instead of streaming them; replay
		// them in completion order (ties by task ID — the retained table is
		// ID-indexed, so this is the deterministic order it can offer).
		order := make([]int, len(res.Tasks))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ta, tb := res.Tasks[order[a]], res.Tasks[order[b]]
			if ta.Completion != tb.Completion {
				return ta.Completion < tb.Completion
			}
			return ta.ID < tb.ID
		})
		for _, i := range order {
			spec.Sink.Observe(res.Tasks[i])
		}
	}
	agg := engine.NewAggregateSink()
	agg.ObserveResult(res)
	runs := []engine.ShardRun{{Shard: 0, Seed: spec.Seed, Result: res}}
	return engine.MergeShards(spec.P, spec.Policy.Name(), runs, []*engine.AggregateSink{agg}, []*engine.SketchSink{nil})
}
