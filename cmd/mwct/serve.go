package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	malleable "github.com/malleable-sched/malleable"
	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/obs"
	"github.com/malleable-sched/malleable/internal/schedule"
)

// newServeMux builds the HTTP API of `mwct serve`:
//
//	GET  /healthz              liveness probe
//	GET  /metrics              Prometheus text exposition of the server registry
//	GET  /v1/metrics           cumulative counters over every load test served (JSON)
//	POST /v1/solve?algo=NAME   schedule a JSON instance, return completions
//	POST /v1/loadtest          run a sharded online load test (loadtestSpec)
//
// enablePprof additionally mounts the net/http/pprof handlers under
// /debug/pprof/ — off by default because the profiling endpoints expose
// internals (and a symbol-resolution CPU cost) operators may not want on an
// open port.
//
// Each mux owns its own metrics state (nothing global), so tests drive
// independent instances through net/http/httptest.
func newServeMux(enablePprof bool) *http.ServeMux {
	return newServeMuxWorkers(enablePprof, 0)
}

// newServeMuxWorkers is newServeMux with a server-side default worker count
// for cluster load tests: a routed spec that leaves "workers" unset runs the
// coordinator with defaultWorkers pool workers. Because results are
// byte-identical at every worker count, the default changes
// how fast the server answers, never what it answers — which is why it is an
// operator flag and not part of the request schema's meaning.
func newServeMuxWorkers(enablePprof bool, defaultWorkers int) *http.ServeMux {
	metrics := newServeMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		metrics.requests.With("/healthz").Inc()
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", metrics.handleProm)
	mux.HandleFunc("GET /v1/metrics", metrics.handle)
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		metrics.requests.With("/v1/solve").Inc()
		handleSolve(w, r)
	})
	mux.HandleFunc("POST /v1/loadtest", func(w http.ResponseWriter, r *http.Request) {
		metrics.requests.With("/v1/loadtest").Inc()
		handleLoadtest(w, r, metrics, defaultWorkers)
	})
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// serveMetrics accumulates every served load test into one AggregateSink —
// the process-lifetime counters behind GET /v1/metrics — and mirrors the
// same totals into an obs.Registry for the Prometheus exposition at
// GET /metrics. The sink itself is mergeable, so folding each run's merged
// shard aggregate in keeps the cumulative mean flow exact without retaining
// anything per task or per run.
type serveMetrics struct {
	mu   sync.Mutex
	runs int
	agg  *engine.AggregateSink

	reg          *obs.Registry
	requests     *obs.CounterVec
	runsTotal    *obs.Counter
	tasksTotal   *obs.Counter
	weightedFlow *obs.Counter
	meanFlow     *obs.Gauge
	staleViews   *obs.Counter
	staleWindow  *obs.Gauge
}

func newServeMetrics() *serveMetrics {
	reg := obs.NewRegistry()
	return &serveMetrics{
		agg:          engine.NewAggregateSink(),
		reg:          reg,
		requests:     reg.CounterVec("mwct_http_requests_total", "HTTP requests served, by path.", "path"),
		runsTotal:    reg.Counter("mwct_loadtest_runs_total", "Load tests completed by this server."),
		tasksTotal:   reg.Counter("mwct_loadtest_tasks_total", "Tasks scheduled across every served load test."),
		weightedFlow: reg.Counter("mwct_loadtest_weighted_flow_total", "Cumulative weighted flow over every served load test."),
		meanFlow:     reg.Gauge("mwct_loadtest_mean_flow", "Mean flow time over every served load test."),
		staleViews:   reg.Counter("mwct_cluster_stale_views_total", "Window-boundary fleet views published by stale-batched cluster load tests."),
		staleWindow:  reg.Gauge("mwct_cluster_stale_window", "Dispatch window size of the last stale-batched run."),
	}
}

// record folds one completed load test into the counters.
func (m *serveMetrics) record(res *engine.LoadResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runs++
	m.agg.Merge(res.Aggregate)
	m.runsTotal.Inc()
	m.tasksTotal.Set(float64(m.agg.Tasks()))
	m.weightedFlow.Set(m.agg.WeightedFlow())
	m.meanFlow.Set(m.agg.MeanFlow())
	// Zero outside stale-batched runs, so other load tests leave the view
	// counters untouched.
	m.staleViews.Add(float64(res.StaleViews))
	if res.StaleWindow > 0 {
		m.staleWindow.Set(float64(res.StaleWindow))
	}
}

// handleProm implements GET /metrics: the Prometheus text exposition of the
// server's registry. Metric reads are atomic, so rendering does not take
// the serveMetrics lock and cannot stall load tests.
func (m *serveMetrics) handleProm(w http.ResponseWriter, r *http.Request) {
	m.requests.With("/metrics").Inc()
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = m.reg.WritePrometheus(w)
}

// handle implements GET /v1/metrics. The counters are snapshotted under the
// lock but written after releasing it, so a slow-reading metrics client
// cannot stall load tests trying to record their results.
func (m *serveMetrics) handle(w http.ResponseWriter, r *http.Request) {
	m.requests.With("/v1/metrics").Inc()
	m.mu.Lock()
	snapshot := map[string]any{
		"runs":         m.runs,
		"tasks":        m.agg.Tasks(),
		"meanFlow":     m.agg.MeanFlow(),
		"weightedFlow": m.agg.WeightedFlow(),
		"perTenant":    m.agg.PerTenant(),
	}
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, snapshot)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// handleSolve schedules a posted instance with one of the offline algorithms
// and returns the completion times and objective.
func handleSolve(w http.ResponseWriter, r *http.Request) {
	algo := r.URL.Query().Get("algo")
	if algo == "" {
		algo = "wdeq"
	}
	var inst schedule.Instance
	if err := json.NewDecoder(r.Body).Decode(&inst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding instance: %w", err))
		return
	}
	var (
		s   *schedule.ColumnSchedule
		err error
	)
	switch algo {
	case "wdeq":
		s, err = malleable.WDEQ(&inst)
	case "deq":
		s, err = malleable.DEQ(&inst)
	case "smith-greedy":
		var g *malleable.GreedyResult
		g, err = malleable.GreedySmith(&inst)
		if err == nil {
			s = g.Schedule
		}
	case "cmax":
		s, err = malleable.CmaxOptimal(&inst)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown algorithm %q (want wdeq, deq, smith-greedy or cmax)", algo))
		return
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	// Report both metrics: "objective" is ΣwC (what wdeq/deq/smith-greedy
	// optimize); cmax optimizes the makespan, so clients comparing algorithms
	// must read the field their algorithm actually targets.
	writeJSON(w, http.StatusOK, map[string]any{
		"algorithm":   algo,
		"objective":   s.WeightedCompletionTime(),
		"makespan":    s.Makespan(),
		"completions": s.CompletionTimes(),
	})
}

// Limits on network-submitted load tests: a local `mwct loadtest` may be as
// large as the operator likes, but an HTTP client must not be able to pin
// every core or exhaust memory with a single request.
const (
	maxServeLoadtestTasks  = 1_000_000
	maxServeLoadtestShards = 256
	maxServeBodyBytes      = 1 << 20
)

// handleLoadtest runs a sharded online load test described by a JSON
// loadtestSpec body and returns the merged engine.LoadResult (without the
// per-task rows, which would dwarf the response). A spec with "stream":true
// runs the O(alive)-memory streaming path — the recommended mode for large
// network-submitted tests. Every successful run is folded into the server's
// /v1/metrics counters.
func handleLoadtest(w http.ResponseWriter, r *http.Request, metrics *serveMetrics, defaultWorkers int) {
	r.Body = http.MaxBytesReader(w, r.Body, maxServeBodyBytes)
	// The CLI's defaults, with the task budget trimmed to probe size: an
	// empty body should answer fast, not benchmark the server.
	spec := defaultLoadtestSpec()
	spec.Tasks = 1000
	// An empty body runs the defaults above.
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding loadtest spec: %w", err))
		return
	}
	if spec.Router != "" && spec.Workers == 0 {
		// The operator's -workers default applies only where it is legal:
		// routed specs that did not choose a worker count themselves.
		spec.Workers = defaultWorkers
	}
	if spec.Tasks > maxServeLoadtestTasks {
		writeError(w, http.StatusBadRequest, fmt.Errorf("tasks %d exceeds the server limit %d", spec.Tasks, maxServeLoadtestTasks))
		return
	}
	if spec.Shards > maxServeLoadtestShards {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shards %d exceeds the server limit %d", spec.Shards, maxServeLoadtestShards))
		return
	}
	res, _, err := runLoadtestSpec(spec)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	metrics.record(res)
	// Strip the per-task metrics before serializing; keep the aggregates.
	shards := make([]map[string]any, len(res.Shards))
	for i, run := range res.Shards {
		shards[i] = map[string]any{
			"shard":        run.Shard,
			"seed":         run.Seed,
			"tasks":        run.Result.Completed,
			"events":       run.Result.Events,
			"maxAlive":     run.Result.MaxAlive,
			"makespan":     run.Result.Makespan,
			"weightedFlow": run.Result.WeightedFlow,
			"meanFlow":     run.Result.MeanFlow(),
			"throughput":   run.Result.Throughput(),
		}
	}
	out := map[string]any{
		"policy":            res.Policy,
		"p":                 res.P,
		"totalTasks":        res.TotalTasks,
		"events":            res.Events,
		"makespan":          res.Makespan,
		"weightedFlow":      res.WeightedFlow,
		"throughput":        res.Throughput,
		"flow":              res.Flow,
		"flowApprox":        res.FlowApprox,
		"perTenant":         res.PerTenant,
		"shards":            shards,
		"minShardCompleted": res.MinShardCompleted,
		"maxShardCompleted": res.MaxShardCompleted,
		"peakBacklog":       res.PeakBacklog,
	}
	if spec.Router != "" {
		// Cluster runs name their router so a client can tell a routed
		// fleet from independent per-shard streams.
		out["router"] = spec.Router
		if spec.Stale {
			// Stale routing changes the schedule AND amortizes dispatch;
			// report both the mode and its view cadence.
			out["stale"] = true
			out["staleViews"] = res.StaleViews
			out["staleWindow"] = res.StaleWindow
			perView := 0.0
			if res.StaleViews > 0 {
				perView = float64(res.TotalTasks) / float64(res.StaleViews)
			}
			out["dispatchesPerView"] = perView
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// runServe implements `mwct serve`.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	workers := fs.Int("workers", 0, "default coordinator worker count for routed load tests whose spec leaves \"workers\" unset (clamped to GOMAXPROCS, the coordinator goroutine included; applies to state-free routers and stale specs; least-backlog or po2 without stale, or a probed run, stays sequential; results are byte-identical at any count, this only changes response latency)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("serve: -workers must be >= 0, got %d", *workers)
	}
	fmt.Fprintf(os.Stderr, "mwct: serving on %s\n", *addr)
	// Explicit timeouts so slow clients cannot hold connections (and their
	// goroutines) open indefinitely.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newServeMuxWorkers(*enablePprof, *workers),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute, // large load tests take a while to run
	}
	return srv.ListenAndServe()
}
