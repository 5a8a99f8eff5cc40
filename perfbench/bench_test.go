package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
)

// simulateOnce runs stream 0 of seed 1 of the named workload once, traced
// when l is non-nil.
func simulateOnce(t *testing.T, name string, workers int, l *layers) (*ref, *engine.LoadResult, counts) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRef(w, streamSeed(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w, seed: 1, sim: w.newSimulator()}
	_, res, c, err := b.simulate(0, workers, l)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.check(res); err != nil {
		t.Fatal(err)
	}
	return r, res, c
}

// The timing wrappers must keep engine-hiback on the virtual-clock path:
// a policy wrapper without EqualShareCertifier sends every event to Allocate.
func TestTracedEngineHibackStaysVirtual(t *testing.T) {
	r, _, untraced := simulateOnce(t, "engine-hiback", 0, nil)
	var l layers
	_, res, traced := simulateOnce(t, "engine-hiback", 0, &l)
	if err := r.check(res); err != nil {
		t.Fatalf("traced result: %v", err)
	}
	if traced != untraced {
		t.Fatalf("traced counts %+v, untraced %+v", traced, untraced)
	}
	if frac := float64(traced.virtual) / float64(traced.events); frac <= 0.99 {
		t.Fatalf("%.4f of events on the virtual path, want > 0.99 (%+v)", frac, traced)
	}
	if l.allocate.calls != traced.fallback || l.step.calls == 0 || l.observe.calls != tasksPerStream {
		t.Fatalf("layer counts %+v for event counts %+v", l, traced)
	}
}

// The program picks its fast paths by these capabilities, so a wrapper must
// declare exactly the ones of the value it wraps.
func TestWrappersKeepCapabilities(t *testing.T) {
	for _, c := range []struct {
		inner engine.Policy
		cert  bool
	}{{engine.WDEQPolicy{}, true}, {engine.WeightGreedyPolicy{}, false}} {
		p, _ := newPolicyTimer(c.inner)
		clone := p.(engine.RunCloner).CloneForRun()
		for _, q := range []engine.Policy{p, clone} {
			if _, ok := q.(engine.EqualShareCertifier); ok != c.cert {
				t.Errorf("timed %s: EqualShareCertifier %v, want %v", c.inner.Name(), ok, c.cert)
			}
		}
	}
	for _, c := range []struct {
		router           string
		stateFree, stale bool
	}{{"round-robin", true, false}, {"least-backlog", false, true}} {
		inner, err := cluster.RouterByName(c.router, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := &timedRouter{inner: inner}
		if r.StateFree() != c.stateFree || r.WindowStale() != c.stale {
			t.Errorf("timed %s: StateFree %v WindowStale %v, want %v %v", c.router, r.StateFree(), r.WindowStale(), c.stateFree, c.stale)
		}
	}
}

// Each shard's Allocate calls land in its own accumulator, so a traced run
// on the worker pool counts exactly what the sequential coordinator counts.
func TestTracedPoolCountsEveryAllocate(t *testing.T) {
	var seq, pool layers
	_, _, cs := simulateOnce(t, "cluster-rr8-batched", 0, &seq)
	_, _, cp := simulateOnce(t, "cluster-rr8-batched", 2, &pool)
	if cs != cp || seq.allocate.calls != pool.allocate.calls || seq.route.calls != pool.route.calls {
		t.Fatalf("sequential %+v %+v, pool %+v %+v", cs, seq, cp, pool)
	}
	if pool.allocate.calls == 0 || pool.route.calls != tasksPerStream {
		t.Fatalf("pool run counted %d Allocate and %d Route calls", pool.allocate.calls, pool.route.calls)
	}
}

func TestLowerBoundRejectsDoctoredResult(t *testing.T) {
	r, res, _ := simulateOnce(t, "cluster-lb8", 0, nil)
	doctored := *res
	doctored.WeightedFlow = r.lowerBound * 0.999
	fresh := &ref{n: r.n, tenants: r.tenants, lowerBound: r.lowerBound}
	err := fresh.check(&doctored)
	if err == nil || !strings.Contains(err.Error(), "lower bound") {
		t.Fatalf("doctored weighted flow %g under bound %g: got %v", doctored.WeightedFlow, r.lowerBound, err)
	}
	if err := fresh.check(res); err != nil {
		t.Fatalf("undoctored result rejected: %v", err)
	}
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

// The metric names and units the benchmark prints are the ones
// BENCHMARK.json declares, for every workload and both kinds of run.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range bf.Workloads {
		for trace, names := range want {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "0", "--trace", trace}
			if err := run(args, &out, &errOut); err != nil {
				t.Fatalf("%v: %v\n%s", args, err, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%v: correct=%v failed=%d of %d\n%s", args, res.Correct, res.Failed, res.Attempted, errOut.String())
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%v: printed %d metrics, BENCHMARK.json declares %d", args, len(res.Metrics), len(names))
			}
			for name, unit := range names {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%v: metric %s printed as %+v (present %v), want unit %s", args, name, got, ok, unit)
				}
			}
		}
	}
}
