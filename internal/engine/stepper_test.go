package engine

import (
	"math"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/workload"
)

// captureSink retains every observed row for exact comparisons.
type captureSink struct {
	rows []TaskMetrics
}

func (c *captureSink) Observe(m TaskMetrics) { c.rows = append(c.rows, m) }

// aggregateEqual compares every aggregate field two runs must agree on
// bit-for-bit.
func aggregateEqual(a, b *Result) bool {
	return a.Policy == b.Policy && a.P == b.P && a.Model == b.Model &&
		a.Completed == b.Completed && a.Events == b.Events && a.MaxAlive == b.MaxAlive &&
		a.Makespan == b.Makespan && a.WeightedFlow == b.WeightedFlow &&
		a.WeightedCompletion == b.WeightedCompletion && a.TotalFlow == b.TotalFlow
}

// Driving the stepper by hand — with accessor calls interleaved between
// events, the suspension the resumable refactor exists for — must reproduce
// RunStreamInto bit-identically: same aggregates, same per-task rows in the
// same order.
func TestStepperManualDriveMatchesRunStream(t *testing.T) {
	arrivals := allocArrivals(t, 400, 17)
	policy, err := PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}

	var want Result
	wantSink := &captureSink{}
	if err := NewRunner().RunStreamInto(&want, 8, policy, NewSliceStream(arrivals), wantSink, Options{}); err != nil {
		t.Fatal(err)
	}

	var got Result
	gotSink := &captureSink{}
	st, err := NewRunner().StartStream(&got, 8, policy, NewSliceStream(arrivals), gotSink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	lastNow := math.Inf(-1)
	for {
		// The suspended accessors must be consistent at every rest state.
		if now := st.Now(); now < lastNow {
			t.Fatalf("clock ran backwards: %g after %g", now, lastNow)
		} else {
			lastNow = now
		}
		if bl := st.Backlog(); bl < 0 || bl > got.MaxAlive+len(arrivals) {
			t.Fatalf("implausible backlog %d", bl)
		}
		if next := st.NextEventTime(); !math.IsInf(next, 1) && next < st.Now() {
			t.Fatalf("next event %g before now %g", next, st.Now())
		}
		ok, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		steps++
	}
	if !st.Done() {
		t.Fatal("stepper stopped without finishing")
	}
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if steps < want.Events {
		t.Fatalf("drove %d steps for %d events", steps, want.Events)
	}
	if !aggregateEqual(&want, &got) {
		t.Fatalf("stepper drive diverges:\n%+v\nvs\n%+v", got, want)
	}
	if len(wantSink.rows) != len(gotSink.rows) {
		t.Fatalf("row counts differ: %d vs %d", len(gotSink.rows), len(wantSink.rows))
	}
	for i := range wantSink.rows {
		if wantSink.rows[i] != gotSink.rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, gotSink.rows[i], wantSink.rows[i])
		}
	}
}

// Feed mode with the whole stream fed up front must match the pull-stream
// path bit-identically — the equivalence that lets the cluster coordinator
// claim engine semantics per shard.
func TestStepperFeedMatchesStream(t *testing.T) {
	for _, model := range []string{"", "powerlaw:0.75", "platform:8@0,4@40,8@80"} {
		t.Run("model="+model, func(t *testing.T) {
			arrivals := allocArrivals(t, 300, 23)
			policy, err := PolicyByName("wdeq")
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{}
			if model != "" {
				m, err := speedup.ParseModel(model)
				if err != nil {
					t.Fatal(err)
				}
				opts.Model = m
			}

			var want Result
			wantSink := &captureSink{}
			if err := NewRunner().RunStreamInto(&want, 8, policy, NewSliceStream(arrivals), wantSink, opts); err != nil {
				t.Fatal(err)
			}

			var got Result
			gotSink := &captureSink{}
			st, err := NewRunner().StartFeed(&got, 8, policy, gotSink, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range arrivals {
				if err := st.Feed(a); err != nil {
					t.Fatal(err)
				}
			}
			st.CloseFeed()
			for {
				ok, err := st.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			if err := st.Finish(); err != nil {
				t.Fatal(err)
			}
			if !aggregateEqual(&want, &got) {
				t.Fatalf("feed mode diverges:\n%+v\nvs\n%+v", got, want)
			}
			for i := range wantSink.rows {
				if wantSink.rows[i] != gotSink.rows[i] {
					t.Fatalf("row %d differs: %+v vs %+v", i, gotSink.rows[i], wantSink.rows[i])
				}
			}
		})
	}
}

// A feed-mode stepper with an empty queue suspends (Step false, Done false)
// and resumes when more arrivals are fed — the coordinator contract.
func TestStepperFeedSuspendResume(t *testing.T) {
	arrivals := allocArrivals(t, 64, 31)
	policy, err := PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	st, err := NewRunner().StartFeed(&res, 8, policy, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Nothing fed yet: the stepper blocks without finishing.
	ok, err := st.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ok || st.Done() {
		t.Fatalf("fresh feed stepper: ok=%v done=%v, want blocked", ok, st.Done())
	}
	if !math.IsInf(st.NextEventTime(), 1) {
		t.Fatalf("blocked stepper has next event %g", st.NextEventTime())
	}
	if err := st.Finish(); err == nil {
		t.Fatal("Finish succeeded on a blocked stepper")
	}

	// Feed half, drain to the block, feed the rest, close, drain to done.
	half := len(arrivals) / 2
	for _, a := range arrivals[:half] {
		if err := st.Feed(a); err != nil {
			t.Fatal(err)
		}
	}
	for {
		ok, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if st.Done() {
		t.Fatal("stepper finished with the feed still open")
	}
	if st.Completed() != half {
		t.Fatalf("completed %d of the %d fed tasks", st.Completed(), half)
	}
	for _, a := range arrivals[half:] {
		if err := st.Feed(a); err != nil {
			t.Fatal(err)
		}
	}
	st.CloseFeed()
	for {
		ok, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(arrivals) {
		t.Fatalf("completed %d tasks, want %d", res.Completed, len(arrivals))
	}
}

// Feed's boundary validation: misordered releases, releases in the
// stepper's past, feeding a stream-driven stepper, and feeding after
// CloseFeed are all rejected.
func TestStepperFeedValidation(t *testing.T) {
	policy, err := PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	arr := func(rel float64) Arrival {
		return Arrival{Task: schedule.Task{Weight: 1, Volume: 1, Delta: 2}, Release: rel}
	}

	var res Result
	st, err := NewRunner().StartFeed(&res, 8, policy, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Feed(arr(5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Feed(arr(3)); err == nil || !strings.Contains(err.Error(), "non-decreasing") {
		t.Fatalf("misordered feed error = %v", err)
	}
	// Drain the fed task; the clock is now at 5 and feeding before it fails.
	for {
		ok, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	// The clock now sits at the completion of the fed task, past its
	// release: feeding behind it is rejected, feeding at exactly now is
	// legal.
	if err := st.Feed(arr(5)); err == nil || !strings.Contains(err.Error(), "past") {
		t.Fatalf("feed into the past error = %v", err)
	}
	if err := st.Feed(arr(st.Now())); err != nil {
		t.Fatalf("feed at now rejected: %v", err)
	}
	st.CloseFeed()
	if err := st.Feed(arr(st.Now() + 1)); err == nil || !strings.Contains(err.Error(), "CloseFeed") {
		t.Fatalf("feed after close error = %v", err)
	}

	var res2 Result
	st2, err := NewRunner().StartStream(&res2, 8, policy, NewSliceStream([]Arrival{arr(0)}), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Feed(arr(1)); err == nil || !strings.Contains(err.Error(), "StartFeed") {
		t.Fatalf("feed on stream stepper error = %v", err)
	}
}

// StepUntil must be a pure batching of the manual NextEventTime/Step loop:
// driving one stepper through an arbitrary horizon schedule and another
// event-by-event yields bit-identical results, sinks, and rest states; no
// call ever processes an event past its horizon; and splitting a horizon
// into sub-horizons changes nothing (granularity invariance — the property
// the parallel cluster coordinator leans on).
func TestStepUntilMatchesManualDrive(t *testing.T) {
	arrivals := allocArrivals(t, 400, 41)
	policy, err := PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}

	var want Result
	wantSink := &captureSink{}
	if err := NewRunner().RunStreamInto(&want, 8, policy, NewSliceStream(arrivals), wantSink, Options{}); err != nil {
		t.Fatal(err)
	}

	// An awkward horizon schedule: tiny increments, exact event times
	// (arrival releases are events), long leaps, and a final +Inf drain.
	horizons := []float64{0, 0.25, arrivals[10].Release, 3, 3, 7.5, 40, math.Inf(1)}

	var got Result
	gotSink := &captureSink{}
	st, err := NewRunner().StartStream(&got, 8, policy, NewSliceStream(arrivals), gotSink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, h := range horizons {
		n, err := st.StepUntil(h)
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if next := st.NextEventTime(); next <= h && !st.Done() {
			t.Fatalf("after StepUntil(%g) next event %g is not past the horizon", h, next)
		}
		if st.Now() > h && !math.IsInf(h, 1) {
			t.Fatalf("StepUntil(%g) advanced the clock to %g", h, st.Now())
		}
	}
	if !st.Done() {
		t.Fatal("StepUntil(+Inf) left the run unfinished")
	}
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if total < want.Events {
		t.Fatalf("StepUntil drove %d steps for %d events", total, want.Events)
	}
	if !aggregateEqual(&want, &got) {
		t.Fatalf("StepUntil drive diverges:\n%+v\nvs\n%+v", got, want)
	}
	if len(wantSink.rows) != len(gotSink.rows) {
		t.Fatalf("row counts differ: %d vs %d", len(gotSink.rows), len(wantSink.rows))
	}
	for i := range wantSink.rows {
		if wantSink.rows[i] != gotSink.rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, gotSink.rows[i], wantSink.rows[i])
		}
	}
}

// The fuzzed form of the granularity invariance above, across the fixed,
// sublinear and platform capacity models: any number of single Steps
// followed by any fixed-stride horizon schedule reproduces RunStreamInto bit
// for bit, and no StepUntil call processes an event past its horizon.
func FuzzStepUntilHorizonSchedule(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(7), uint8(3), uint8(0))
	f.Add(int64(99), uint8(1), uint8(0), uint8(0), uint8(1))
	f.Add(int64(-4), uint8(120), uint8(255), uint8(40), uint8(2))
	f.Add(int64(7777), uint8(64), uint8(31), uint8(255), uint8(5))
	f.Add(int64(2024), uint8(200), uint8(90), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, cut, stride, sel uint8) {
		count := 1 + int(n)%128
		arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
			Class:   workload.Uniform,
			P:       8,
			Process: workload.Poisson,
			Rate:    1 + float64(sel%8),
		}, count, seed)
		if err != nil {
			t.Skip()
		}
		opts := Options{}
		switch sel % 3 {
		case 1:
			m, err := speedup.ParseModel("powerlaw:0.8")
			if err != nil {
				t.Fatal(err)
			}
			opts.Model = m
		case 2:
			m, err := speedup.ParseModel("platform:8@0,3@10,8@25")
			if err != nil {
				t.Fatal(err)
			}
			opts.Model = m
		}
		policy, err := PolicyByName("wdeq")
		if err != nil {
			t.Fatal(err)
		}

		var want Result
		wantSink := &captureSink{}
		if err := NewRunner().RunStreamInto(&want, 8, policy, NewSliceStream(arrivals), wantSink, opts); err != nil {
			t.Fatal(err)
		}

		var got Result
		gotSink := &captureSink{}
		st, err := NewRunner().StartStream(&got, 8, policy, NewSliceStream(arrivals), gotSink, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(cut) && !st.Done(); i++ {
			if _, err := st.Step(); err != nil {
				t.Fatal(err)
			}
		}
		step := (1 + float64(stride)) / 16
		for k := 1; k <= 4096 && !st.Done(); k++ {
			h := st.Now() + step
			if _, err := st.StepUntil(h); err != nil {
				t.Fatal(err)
			}
			if st.Now() > h {
				t.Fatalf("StepUntil(%g) advanced the clock to %g", h, st.Now())
			}
			if next := st.NextEventTime(); next <= h && !st.Done() {
				t.Fatalf("after StepUntil(%g) next event %g is not past the horizon", h, next)
			}
		}
		if _, err := st.StepUntil(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if err := st.Finish(); err != nil {
			t.Fatal(err)
		}
		if !aggregateEqual(&want, &got) {
			t.Fatalf("horizon-scheduled drive diverges:\n%+v\nvs\n%+v", got, want)
		}
		if len(wantSink.rows) != len(gotSink.rows) {
			t.Fatalf("row counts differ: %d vs %d", len(gotSink.rows), len(wantSink.rows))
		}
		for i := range wantSink.rows {
			if wantSink.rows[i] != gotSink.rows[i] {
				t.Fatalf("row %d differs: %+v vs %+v", i, gotSink.rows[i], wantSink.rows[i])
			}
		}
	})
}

// StepUntil must drive the probe exactly like the manual loop it batches:
// probes fire at every rest state a bulk drive passes through, in the same
// order with the same snapshots, whatever the horizon schedule — under the
// default fire-every-event setting and under both thinning knobs.
func TestStepUntilProbeMatchesManualDrive(t *testing.T) {
	arrivals := allocArrivals(t, 400, 53)
	policy, err := PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"every-event", Options{}},
		{"every-3-events", Options{ProbeEveryEvents: 3}},
		{"interval", Options{ProbeInterval: 2.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(bulk bool) []Snapshot {
				var snaps []Snapshot
				opts := tc.opts
				opts.Probe = ProbeFunc(func(s Snapshot) { snaps = append(snaps, s) })
				var res Result
				st, err := NewRunner().StartStream(&res, 8, policy, NewSliceStream(arrivals), nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				if bulk {
					horizons := []float64{0, 1.5, arrivals[20].Release, 10, 10, 35, math.Inf(1)}
					for _, h := range horizons {
						if _, err := st.StepUntil(h); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					for {
						ok, err := st.Step()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
					}
				}
				if err := st.Finish(); err != nil {
					t.Fatal(err)
				}
				return snaps
			}
			want := run(false)
			got := run(true)
			if len(want) == 0 {
				t.Fatal("probe never fired")
			}
			if !want[len(want)-1].Done || !got[len(got)-1].Done {
				t.Fatal("final probe snapshot is not Done")
			}
			if len(want) != len(got) {
				t.Fatalf("bulk drive fired the probe %d times, manual drive %d", len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("probe snapshot %d differs: bulk %+v vs manual %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// A blocked feed-mode stepper must return from StepUntil immediately instead
// of spinning: with no pending arrivals NextEventTime is +Inf, so even a
// +Inf horizon is a no-op until more work is fed or the feed is closed.
func TestStepUntilFeedBlocksAndResumes(t *testing.T) {
	policy, err := PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	// Two bursts separated by a long idle gap: the first drains completely
	// before the second's release, leaving the stepper genuinely blocked.
	arrivals := []Arrival{
		{Task: schedule.Task{Weight: 1, Volume: 2, Delta: 4}, Release: 0},
		{Task: schedule.Task{Weight: 2, Volume: 1, Delta: 2}, Release: 0.5},
		{Task: schedule.Task{Weight: 1, Volume: 3, Delta: 8}, Release: 100},
		{Task: schedule.Task{Weight: 1, Volume: 1, Delta: 2}, Release: 100},
	}

	var want Result
	wantSink := &captureSink{}
	if err := NewRunner().RunStreamInto(&want, 8, policy, NewSliceStream(arrivals), wantSink, Options{}); err != nil {
		t.Fatal(err)
	}

	var got Result
	gotSink := &captureSink{}
	st, err := NewRunner().StartFeed(&got, 8, policy, gotSink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals[:2] {
		if err := st.Feed(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.StepUntil(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if st.Done() {
		t.Fatal("stepper finished with half the arrivals unfed")
	}
	if st.Now() >= 100 {
		t.Fatalf("first burst drained at %g, want well before the second burst", st.Now())
	}
	if next := st.NextEventTime(); !math.IsInf(next, 1) {
		t.Fatalf("blocked stepper reports next event %g, want +Inf", next)
	}
	// StepUntil on a blocked stepper is a no-op, not an error.
	if n, err := st.StepUntil(math.Inf(1)); err != nil || n != 0 {
		t.Fatalf("StepUntil on blocked stepper = (%d, %v), want (0, nil)", n, err)
	}
	for _, a := range arrivals[2:] {
		if err := st.Feed(a); err != nil {
			t.Fatal(err)
		}
	}
	st.CloseFeed()
	if _, err := st.StepUntil(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatal("stepper not done after CloseFeed and drain")
	}
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if !aggregateEqual(&want, &got) {
		t.Fatalf("feed StepUntil diverges:\n%+v\nvs\n%+v", got, want)
	}
	if len(wantSink.rows) != len(gotSink.rows) {
		t.Fatalf("row counts differ: %d vs %d", len(gotSink.rows), len(wantSink.rows))
	}
	for i := range wantSink.rows {
		if wantSink.rows[i] != gotSink.rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, gotSink.rows[i], wantSink.rows[i])
		}
	}
}
