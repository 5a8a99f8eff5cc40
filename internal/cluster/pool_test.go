package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/workload"
)

// Every window runs every shard exactly once, whether the hands catch the
// window while spinning or have to be woken from the park: a pause between
// windows outlasts the helpers' spin, and a slow shard outlasts the
// coordinator's.
func TestPoolRunsEveryShardOncePerWindow(t *testing.T) {
	const shards, windows = 8, 60
	for _, hands := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("hands=%d", hands), func(t *testing.T) {
			p := newPool(hands, shards)
			defer p.close()
			runs := make([]int, shards)
			for w := 0; w < windows; w++ {
				slow := -1
				switch w % 3 {
				case 1:
					time.Sleep(2 * time.Millisecond) // helpers park
				case 2:
					slow = w % shards // the coordinator parks at the barrier
				}
				err := p.run(func(s int) error {
					if s == slow {
						time.Sleep(2 * time.Millisecond)
					}
					runs[s]++
					return nil
				})
				if err != nil {
					t.Fatalf("window %d: %v", w, err)
				}
				for s, n := range runs {
					if n != w+1 {
						t.Fatalf("after window %d shard %d ran %d times, want %d", w, s, n, w+1)
					}
				}
			}
		})
	}
}

// A failing window reports the lowest failing shard's error — the one a
// serial pass over the shards stops at — whichever hand owns it, and a
// panic in shard code becomes that shard's error instead of a crash.
func TestPoolReportsLowestFailingShard(t *testing.T) {
	const shards, hands = 8, 4 // shard s belongs to hand s%4
	cases := []struct {
		name  string
		fail  map[int]bool
		panic int
		want  string
	}{
		// Shard 2 (hand 2) is lower than shard 5 (hand 1).
		{name: "error", fail: map[int]bool{5: true, 2: true}, panic: -1, want: "shard 2 failed"},
		{name: "panic", fail: map[int]bool{6: true}, panic: 3, want: "cluster: shard 3: panic: boom"},
		{name: "error-before-panic", fail: map[int]bool{1: true}, panic: 3, want: "shard 1 failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPool(hands, shards)
			defer p.close()
			err := p.run(func(s int) error {
				if s == tc.panic {
					panic("boom")
				}
				if tc.fail[s] {
					return fmt.Errorf("shard %d failed", s)
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			// The pool stays usable: a clean window after a failing one
			// reports no stale error.
			if err := p.run(func(int) error { return nil }); err != nil {
				t.Fatalf("clean window after a failure: %v", err)
			}
		})
	}
}

// busy occupies the calling goroutine for d, standing in for shard work or
// the coordinator's routing.
func busy(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// BenchmarkPoolWindow measures one window's wall time on a two-hand pool
// over eight shards: the coordinator routes for a while (the helper waits),
// then both hands run four shards each. The ideal is route + 4·shard; the
// excess is the barrier's cost, chiefly whether a waiter had parked and
// must be woken.
func BenchmarkPoolWindow(b *testing.B) {
	for _, c := range []struct{ route, shard time.Duration }{
		{120 * time.Microsecond, 30 * time.Microsecond}, // cluster-rr8-batched-sized windows
		{20 * time.Microsecond, 5 * time.Microsecond},
		{2 * time.Millisecond, 30 * time.Microsecond}, // long enough that the helper parks
	} {
		b.Run(fmt.Sprintf("route=%v/shard=%v", c.route, c.shard), func(b *testing.B) {
			p := newPool(2, 8)
			defer p.close()
			work := func(int) error {
				busy(c.shard)
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				busy(c.route)
				if err := p.run(work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// panicPolicy hands out a small share until a shard's alive set grows past
// two tasks, then panics, standing in for a faulty policy.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "panicky" }
func (panicPolicy) Allocate(p float64, alive []engine.TaskState, dst []float64) []float64 {
	if len(alive) > 2 {
		panic("boom")
	}
	for range alive {
		dst = append(dst, 0.1)
	}
	return dst
}

// A panic in policy code fails a windowed run with the shard's error
// whether the window ran on a pool or, with GOMAXPROCS clamping the pool
// to one hand, serially on the coordinator.
func TestWindowedPanicIsAnErrorAtAnyGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, tc := range []struct {
			router string
			stale  bool
		}{{"round-robin", false}, {"least-backlog", true}} {
			t.Run(fmt.Sprintf("%s/stale=%v/GOMAXPROCS=%d", tc.router, tc.stale, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				r, err := RouterByName(tc.router, 3)
				if err != nil {
					t.Fatal(err)
				}
				stream, err := workload.NewStream(skewedConfig(115.2), 2000, 17)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Shards: 8, P: 8, Policy: panicPolicy{}, Router: r, Workers: 2, StaleRouting: tc.stale}
				if _, err := Run(cfg, stream); err == nil || !strings.Contains(err.Error(), "panic: boom") {
					t.Fatalf("err = %v, want the shard's panic as an error", err)
				}
			})
		}
	}
}
