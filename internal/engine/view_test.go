package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/stepfunc"
)

// viewChecker wraps a policy and asserts, at every Allocate, that the view
// the engine hands over is slot-aligned with the Runner's live slots: alive[k]
// is bitwise the projection of r.live[k], with Delta = min(δ, capacity). It
// forwards the equal-share certificate so certified runs still take the
// virtual clock between fallback events.
type viewChecker struct {
	inner Policy
	cert  EqualShareCertifier
	r     *Runner
	calls int
	err   error
}

func newViewChecker(inner Policy, r *Runner) *viewChecker {
	c, _ := inner.(EqualShareCertifier)
	return &viewChecker{inner: inner, cert: c, r: r}
}

func (c *viewChecker) Name() string { return c.inner.Name() }

func (c *viewChecker) EqualShareWeight(w float64) float64 { return c.cert.EqualShareWeight(w) }

func (c *viewChecker) Allocate(capacity float64, alive []TaskState, dst []float64) []float64 {
	c.calls++
	if c.err == nil {
		c.err = c.check(capacity, alive)
	}
	return c.inner.Allocate(capacity, alive, dst)
}

func (c *viewChecker) check(capacity float64, alive []TaskState) error {
	live := c.r.live
	if len(alive) != len(live) {
		return fmt.Errorf("call %d: view has %d entries for %d live slots", c.calls, len(alive), len(live))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k := range live {
		lt, s := &live[k], alive[k]
		if s.ID != lt.id || s.Tenant != lt.tenant ||
			!same(s.Release, lt.release) || !same(s.Weight, lt.weight) ||
			!same(s.Delta, math.Min(lt.rawDelta, capacity)) || !same(s.Curve, lt.curve) ||
			!same(s.Processed, lt.processed) || !same(s.Remaining, lt.remaining) {
			return fmt.Errorf("call %d: slot %d view %+v, live id=%d tenant=%d release=%g weight=%g delta=min(%g,%g) curve=%g processed=%g remaining=%g",
				c.calls, k, s, lt.id, lt.tenant, lt.release, lt.weight,
				lt.rawDelta, capacity, lt.curve, lt.processed, lt.remaining)
		}
	}
	return nil
}

func (c *viewChecker) verify(t *testing.T, label string) {
	t.Helper()
	if c.err != nil {
		t.Fatalf("%s: %v", label, c.err)
	}
	if c.calls == 0 {
		t.Fatalf("%s: the policy was never invoked", label)
	}
}

// viewArrivals is a release-sorted stream on P = 8 that makes a WDEQ run
// switch between the virtual clock and the fallback path many times: degree
// bounds from 0.5 (pinned while the backlog is short) to 8, every tenth task
// zero-volume, and releases rounded to a quarter so arrivals tie.
func viewArrivals(n int, seed int64) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	deltas := []float64{0.5, 1, 2, 3, 8}
	arrivals := make([]Arrival, n)
	now := 0.0
	for i := range arrivals {
		now += rng.ExpFloat64() / 4.5
		v := 0.2 + 3*rng.Float64()
		if i%10 == 3 {
			v = 0
		}
		arrivals[i] = Arrival{
			Task: task(float64(1+rng.Intn(4)), v, deltas[rng.Intn(len(deltas))]),
			// Quarter-rounded releases make ties.
			Release: math.Floor(now*4) / 4,
			Tenant:  rng.Intn(3),
		}
	}
	return arrivals
}

// The policy view persists across events (admission appends to it, swap-delete
// mirrors it, the decrement sweep writes Remaining/Processed in place), so it
// must never drift from the live slots. Checked at every Allocate over WDEQ
// runs that cross virtual/fallback transitions with zero-volume tasks and
// arrival ties, under both event cores, on a time-varying platform, and in
// feed mode through FeedBatch.
func TestPolicyViewCoherence(t *testing.T) {
	arrivals := viewArrivals(600, 5)
	profile, err := stepfunc.FromSteps([]float64{0, 4, 9, 15}, []float64{8, 3, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]speedup.Model{"linear": nil, "platform": speedup.Platform{Profile: profile}}
	for modelName, model := range models {
		for _, core := range []EventCore{CoreAuto, CoreNaive} {
			label := fmt.Sprintf("%s/core%d", modelName, core)
			r := NewRunner()
			c := newViewChecker(WDEQPolicy{}, r)
			_, err := r.RunWithOptions(8, c, arrivals, Options{Model: model, EventCore: core})
			c.verify(t, label)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			stats := r.LastQueueStats()
			if model == nil && (stats.Transitions < 4 || stats.VirtualEvents == 0) {
				t.Fatalf("%s: run does not cross virtual/fallback segments: %+v", label, stats)
			}
		}
	}

	t.Run("feedbatch", func(t *testing.T) {
		r := NewRunner()
		c := newViewChecker(WDEQPolicy{}, r)
		var res Result
		st, err := r.StartFeed(&res, 8, c, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(arrivals); i += 37 {
			if _, err := st.FeedBatch(arrivals[i:min(i+37, len(arrivals))]); err != nil {
				t.Fatal(err)
			}
		}
		st.CloseFeed()
		if err := st.drain(); err != nil {
			t.Fatal(err)
		}
		c.verify(t, "feedbatch")
	})

}

// boundWideningPolicy writes a wider degree bound into the view it is handed
// and then allocates up to it: the whole platform to a δ = 1 task.
type boundWideningPolicy struct{}

func (boundWideningPolicy) Name() string { return "widen" }
func (boundWideningPolicy) Allocate(p float64, alive []TaskState, dst []float64) []float64 {
	for i := range alive {
		alive[i].Delta = p
		dst = append(dst, alive[i].Delta)
	}
	return dst
}

// The engine validates allocations against, and computes rates from, its own
// copy of each degree bound, so a policy that rewrites the view cannot run a
// task above its δ: the run fails with the degree-bound error instead of
// completing the δ = 1, V = 4 task at t = 0.5 on all 8 processors.
func TestPolicyCannotWidenDegreeBound(t *testing.T) {
	res, err := Run(8, boundWideningPolicy{}, []Arrival{{Task: task(1, 4, 1)}})
	if err == nil || !strings.Contains(err.Error(), "exceeds its degree bound 1") {
		var completion float64
		if res != nil && len(res.Tasks) > 0 {
			completion = res.Tasks[0].Completion
		}
		t.Fatalf("err = %v (completion %g), want the degree-bound violation", err, completion)
	}
}
