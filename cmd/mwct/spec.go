package main

import "flag"

// defaultLoadtestSpec is the single source of the default load-test
// parameterization. `mwct loadtest`'s flag defaults and the spec an empty
// POST /v1/loadtest body implies are both built from it, so the CLI and the
// HTTP API cannot drift apart field by field. (The server trims Tasks down —
// a network default should be a probe, not a benchmark.)
func defaultLoadtestSpec() loadtestSpec {
	return loadtestSpec{
		Policy:  "wdeq",
		Class:   "uniform",
		Process: "poisson",
		Rate:    8,
		Burst:   4,
		Tasks:   10000,
		Shards:  4,
		P:       8,
		Seed:    1,
	}
}

// specFlags registers the workload/topology flags shared by every spec-driven
// subcommand on fs, with defaults drawn from def, and returns a builder that
// assembles the parsed values into a loadtestSpec. Subcommand-specific flags
// (-trace-out, -timeline, ...) stay with their subcommand; this is only the
// part that parameterizes the run itself.
func specFlags(fs *flag.FlagSet, def loadtestSpec) func() loadtestSpec {
	policy := fs.String("policy", def.Policy, "policy: wdeq, deq, weight-greedy, smith-ratio")
	class := fs.String("class", def.Class, "instance class for the task shapes (see `mwct gen`)")
	process := fs.String("process", def.Process, "arrival process: poisson or bursty")
	rate := fs.Float64("rate", def.Rate, "per-shard arrival rate (tasks per unit time)")
	burst := fs.Float64("burst", def.Burst, "mean burst size of the bursty process")
	tasks := fs.Int("n", def.Tasks, "total number of tasks across all shards")
	shards := fs.Int("shards", def.Shards, "number of concurrent engine shards")
	p := fs.Float64("p", def.P, "per-shard platform capacity (processors)")
	seed := fs.Int64("seed", def.Seed, "base random seed (per-shard seeds are derived; seeds the router RNG in cluster mode)")
	tenants := fs.String("tenants", def.Tenants, "tenant mix as name:weight:share,... (empty = single tenant)")
	tenantSkew := fs.Float64("tenant-skew", def.TenantSkew, "Zipf exponent reshaping the tenant shares (tenant i's share is divided by (i+1)^skew); 0 keeps them as configured")
	router := fs.String("router", def.Router, "cluster mode: dispatch ONE global arrival stream (rate is then fleet-wide) across the shards with this router: round-robin, hash-tenant, least-backlog, po2; empty keeps independent per-shard streams")
	workers := fs.Int("workers", def.Workers, "cluster coordinator worker count: >= 2 advances shards concurrently on that many goroutines (the coordinator included, clamped to GOMAXPROCS), one dispatch window at a time, with a byte-identical report (requires -router); applies to state-free routers (round-robin, hash-tenant) and -stale, while least-backlog or po2 without -stale, or any run with a probe, runs sequentially")
	stale := fs.Bool("stale", def.Stale, "run the cluster coordinator in stale-batched mode: the router reads fleet views published once per dispatch window instead of per dispatch, removing the per-dispatch barrier; deterministic at any -workers but a different schedule than exact routing (requires -router least-backlog or po2; view counts go to the stderr perf footer)")
	prefetch := fs.Bool("prefetch", def.Prefetch, "overlap arrival generation/trace decode with cluster execution on a producer goroutine; pure pipelining, byte-identical output (requires -router)")
	speedupSpec := fs.String("speedup", def.Speedup, "speedup model: linear, powerlaw[:alpha], amdahl[:sigma], platform:cap@t,... (empty = linear)")
	curveMin := fs.Float64("curve-min", def.CurveMin, "lower bound of per-task speedup-curve draws (0 with -curve-max 0 disables)")
	curveMax := fs.Float64("curve-max", def.CurveMax, "upper bound of per-task speedup-curve draws")
	stream := fs.Bool("stream", def.Stream, "stream arrivals through the engine (O(alive) memory; flow quantiles from a sketch) — required for very large -n")
	return func() loadtestSpec {
		return loadtestSpec{
			Policy:     *policy,
			Class:      *class,
			Process:    *process,
			Rate:       *rate,
			Burst:      *burst,
			Tasks:      *tasks,
			Shards:     *shards,
			P:          *p,
			Seed:       *seed,
			Tenants:    *tenants,
			TenantSkew: *tenantSkew,
			Router:     *router,
			Workers:    *workers,
			Stale:      *stale,
			Prefetch:   *prefetch,
			Speedup:    *speedupSpec,
			CurveMin:   *curveMin,
			CurveMax:   *curveMax,
			Stream:     *stream,
		}
	}
}
