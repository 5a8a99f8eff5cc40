// Command perfbench is the repository's benchmark. It runs one named
// workload of the streaming simulator for a wall-clock budget, checks every
// simulated output, and prints its metrics: the end-to-end metrics by
// default, the per-layer metrics of a traced run with --trace 1. The last
// line of its output is one JSON object. NOTES.md describes the workloads
// and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload cluster-lb8 --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// def names a metric and its unit; the lists below are the metric names of
// BENCHMARK.json, in its order.
type def struct{ name, unit string }

var endToEnd = []def{
	{"sim_s_best", "s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"mean_weighted_flow", "vtime"},
	{"flow_p99", "vtime"},
}

// printedOnly metrics get a line of their own but stay out of the result
// object and BENCHMARK.json, which could bound them no tighter than they
// swing between runs on a shared host (see NOTES.md).
var printedOnly = []def{
	{"sim_s_min", "s"},
	{"tasks_per_s", "1/s"},
	{"sim_s_p50", "s"},
	{"sim_s_tail", "s"},
}

var perLayer = []def{
	{"engine.ns_per_event", "ns"},
	{"engine.self_s", "s/sim"},
	{"engine.step_calls", "count/sim"},
	{"engine.step_s", "s/sim"},
	{"engine.virtual_events", "count/sim"},
	{"engine.fallback_events", "count/sim"},
	{"engine.transitions", "count/sim"},
	{"engine.events", "count/sim"},
	{"engine.max_alive", "tasks"},
	{"core.ns_per_allocate", "ns"},
	{"core.allocate_calls", "count/sim"},
	{"core.allocate_s", "s/sim"},
	{"core.alive_per_allocate", "tasks"},
	{"cluster.ns_per_route", "ns"},
	{"cluster.route_calls", "count/sim"},
	{"cluster.route_s", "s/sim"},
	{"cluster.run_s", "s/sim"},
	{"cluster.residual_s", "s/sim"},
	{"cluster.pool_speedup", "ratio"},
	{"cluster.peak_backlog", "tasks"},
	{"cluster.shard_imbalance", "ratio"},
	{"workload.ns_per_arrival", "ns"},
	{"workload.next_calls", "count/sim"},
	{"workload.next_s", "s/sim"},
	{"sink.observe_calls", "count/sim"},
	{"sink.observe_s", "s/sim"},
	{"runtime.alloc_bytes_per_task", "B/task"},
	{"runtime.gc_cycles", "count/sim"},
	{"trace.overhead_frac", "ratio"},
}

// metric is one measured value; note is printed on its human-readable line.
type metric struct {
	name  string
	value float64
	note  string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: engine-hiback, cluster-lb8 or cluster-rr8-batched")
	seed := fs.Int64("seed", 1, "seed the workload's streams are drawn from")
	seconds := fs.Float64("seconds", 30, "wall-clock seconds to measure for; whole passes over the streams always complete")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds >= 0) {
		return fmt.Errorf("--seconds must be non-negative, got %g", *seconds)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), *seed)
	fmt.Fprintf(stdout, "workload: %s (%s)\n", w.name, w.why)

	b := &bench{w: w, seed: *seed, log: stderr}
	defs := endToEnd
	var ms []metric
	if *trace == 0 {
		ms, err = b.measure(budget)
	} else {
		defs = perLayer
		ms, err = b.traced(budget)
	}
	if err != nil {
		return err
	}
	return report(stdout, b, defs, ms)
}

// report prints one line per metric and then the result object.
func report(out io.Writer, b *bench, defs []def, ms []metric) error {
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]value{},
	}
	units := map[string]string{}
	for _, d := range printedOnly {
		units[d.name] = d.unit
	}
	gated := map[string]bool{}
	for _, d := range defs {
		units[d.name] = d.unit
		gated[d.name] = true
	}
	for _, m := range ms {
		unit, ok := units[m.name]
		if !ok {
			return fmt.Errorf("metric %q is not among this run's metrics", m.name)
		}
		if gated[m.name] {
			res.Metrics[m.name] = value{Value: m.value, Unit: unit}
		}
		line := fmt.Sprintf("%s = %.6g %s", m.name, m.value, unit)
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Fprintln(out, line)
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("measured %d metrics, want %d", len(res.Metrics), len(defs))
	}
	fmt.Fprintf(out, "failed_frac = %.6g ratio (%d of %d simulations)\n",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel returns the first CPU model name in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
