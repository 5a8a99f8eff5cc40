package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"github.com/malleable-sched/malleable/internal/engine"
)

// ref is what the checks know about one stream: facts computed from its
// generated arrivals alone, and the first simulated output every later
// simulation of the stream must reproduce byte for byte.
type ref struct {
	n       int
	tenants map[int]int
	// lowerBound is Σ w·V/min(δ, P): no task can finish faster than its
	// volume at its full degree bound under the linear model.
	lowerBound float64

	out []byte
	res *engine.LoadResult
	// untraced holds the event counts of the last untraced simulation.
	untraced counts
}

// newRef draws the stream with the given seed and records its task count,
// per-tenant counts and weighted-flow lower bound.
func newRef(w spec, seed int64) (*ref, error) {
	s, err := w.stream(seed)
	if err != nil {
		return nil, err
	}
	r := &ref{tenants: map[int]int{}}
	for {
		a, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return r, nil
		}
		r.n++
		r.tenants[a.Tenant]++
		r.lowerBound += a.Task.Weight * a.Task.Volume / math.Min(a.Task.Delta, procs)
	}
}

// check validates one simulated result against the stream's facts and its
// reference output; the first result checked becomes the reference.
func (r *ref) check(res *engine.LoadResult) error {
	if res.TotalTasks != r.n {
		return fmt.Errorf("%d of %d tasks completed", res.TotalTasks, r.n)
	}
	shardSum := 0
	for _, s := range res.Shards {
		shardSum += s.Result.Completed
	}
	if shardSum != r.n {
		return fmt.Errorf("shards completed %d tasks, stream has %d", shardSum, r.n)
	}
	if len(res.PerTenant) != len(r.tenants) {
		return fmt.Errorf("%d tenants completed tasks, stream has %d", len(res.PerTenant), len(r.tenants))
	}
	tenantSum := 0
	for _, t := range res.PerTenant {
		if t.Tasks != r.tenants[t.Tenant] {
			return fmt.Errorf("tenant %d completed %d tasks, stream has %d", t.Tenant, t.Tasks, r.tenants[t.Tenant])
		}
		tenantSum += t.Tasks
	}
	if tenantSum != r.n {
		return fmt.Errorf("per-tenant counts sum to %d, stream has %d", tenantSum, r.n)
	}
	if res.WeightedFlow < r.lowerBound*(1-1e-9) {
		return fmt.Errorf("weighted flow %g is below the lower bound Σw·V/min(δ,P) = %g", res.WeightedFlow, r.lowerBound)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	if r.out == nil {
		r.out, r.res = out, res
		return nil
	}
	if !bytes.Equal(out, r.out) {
		return fmt.Errorf("result differs from the stream's reference output")
	}
	return nil
}
