package core

import (
	"math"

	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/stepfunc"
)

// ShareAllocation implements the resource-sharing rule of Algorithm 1 (WDEQ):
// the P processors are split between the active tasks proportionally to their
// weights; tasks whose proportional share exceeds their degree bound δ_i are
// pinned at δ_i and the surplus is redistributed among the others, repeatedly,
// until a fixed point is reached.
//
// weights and deltas describe the active tasks only; the returned slice gives
// each task's allocation and always sums to at most P. The function is purely
// combinatorial (it never looks at volumes), which is what makes WDEQ
// non-clairvoyant.
func ShareAllocation(p float64, weights, deltas []float64) []float64 {
	return ShareAllocationInto(make([]float64, 0, len(deltas)), p, weights, deltas)
}

// ShareAllocationInto is ShareAllocation with the append-into-dst convention
// of the hot engine loop: one share per entry of deltas is appended to dst
// and the extended slice is returned. A nil weights slice means unit weights
// (the DEQ rule); otherwise weights must be as long as deltas. When
// cap(dst) >= len(dst)+len(deltas) no allocation is performed, so callers that
// thread the same buffer through every event run allocation-free in steady
// state.
//
// Inputs are the engine's: weights positive and finite, deltas and p
// non-negative. Each pass of the fixed point is a single loop that computes
// w_i·remaining/weightSum with the running remaining, pins the tasks whose
// share exceeds δ_i, and sums the next pass's weightSum over the tasks it
// leaves unpinned. The pass that pins nothing is the last, and the shares it
// computed are the answer.
func ShareAllocationInto(dst []float64, p float64, weights, deltas []float64) []float64 {
	n := len(deltas)
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, unpinned)
	}
	alloc := dst[base : base+n]
	weightSum := float64(n)
	if weights != nil {
		weights = weights[:n]
		weightSum = 0
		for _, w := range weights {
			weightSum += w
		}
	}
	remaining := p
	for weightSum > 0 {
		changed := false
		var next float64
		for i, d := range deltas {
			if !isUnpinned(alloc[i]) {
				continue
			}
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			share := w * remaining / weightSum
			if d < share {
				alloc[i] = d
				remaining -= d
				changed = true
			} else {
				alloc[i] = -share
				next += w
			}
		}
		if !changed {
			// Clearing the sign bit turns every negated share back into the
			// share and leaves the pinned δ values as they are.
			for i, a := range alloc {
				alloc[i] = math.Abs(a)
			}
			return dst
		}
		weightSum = next
	}
	// No unpinned weight left: every task is pinned (or there are none).
	for i, a := range alloc {
		if isUnpinned(a) {
			alloc[i] = 0
		}
	}
	return dst
}

// unpinned marks a task whose share is still being negotiated by the fixed
// point. Pinned tasks hold their δ (non-negative, so sign bit clear); tasks
// left unpinned by a pass hold the negated share that pass computed, so the
// sign bit alone is the "still unpinned" flag and no separate bool scratch is
// needed. Negation is exact, so undoing it yields the share bit for bit.
var unpinned = math.Copysign(0, -1)

func isUnpinned(a float64) bool { return math.Signbit(a) }

// EquipartitionAllocation is the unweighted DEQ sharing rule: every active
// task has weight one.
func EquipartitionAllocation(p float64, deltas []float64) []float64 {
	return EquipartitionAllocationInto(make([]float64, 0, len(deltas)), p, deltas)
}

// EquipartitionAllocationInto is EquipartitionAllocation with the
// append-into-dst convention of ShareAllocationInto.
func EquipartitionAllocationInto(dst []float64, p float64, deltas []float64) []float64 {
	return ShareAllocationInto(dst, p, nil, deltas)
}

// RunWDEQ simulates the non-clairvoyant WDEQ algorithm (Algorithm 1 of the
// paper) on the instance and returns the resulting column-based schedule.
// The scheduler re-computes the weighted equipartition every time a task
// completes; it never uses the task volumes to take decisions (they are used
// by the simulation only to detect completions), which is exactly the
// non-clairvoyant execution model of Section III.
func RunWDEQ(inst *schedule.Instance) (*schedule.ColumnSchedule, error) {
	return runEquipartition(inst, false)
}

// RunDEQ simulates the unweighted DEQ algorithm of Deng et al. (all weights
// treated as one), the baseline WDEQ generalizes.
func RunDEQ(inst *schedule.Instance) (*schedule.ColumnSchedule, error) {
	return runEquipartition(inst, true)
}

func runEquipartition(inst *schedule.Instance, ignoreWeights bool) (*schedule.ColumnSchedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.N()
	remaining := make([]float64, n)
	active := make([]int, 0, n)
	profiles := make([]*stepfunc.StepFunc, n)
	completions := make([]float64, n)
	for i := range remaining {
		remaining[i] = inst.Tasks[i].Volume
		active = append(active, i)
		profiles[i] = stepfunc.Constant(0)
	}
	now := 0.0
	// Scratch threaded through every decision point so the simulation loop
	// does not allocate per event (the append-into-dst contract of
	// ShareAllocationInto).
	weights := make([]float64, 0, n)
	deltas := make([]float64, 0, n)
	var allocBuf []float64
	for len(active) > 0 {
		weights, deltas = weights[:0], deltas[:0]
		for _, i := range active {
			if !ignoreWeights {
				weights = append(weights, inst.Tasks[i].Weight)
			}
			deltas = append(deltas, inst.EffectiveDelta(i))
		}
		if ignoreWeights {
			allocBuf = EquipartitionAllocationInto(allocBuf[:0], inst.P, deltas)
		} else {
			allocBuf = ShareAllocationInto(allocBuf[:0], inst.P, weights, deltas)
		}
		alloc := allocBuf

		// Next event: the earliest completion under the current allocation.
		dt := math.Inf(1)
		for k, i := range active {
			if alloc[k] <= 0 {
				continue
			}
			if d := remaining[i] / alloc[k]; d < dt {
				dt = d
			}
		}
		if math.IsInf(dt, 1) {
			// No active task makes progress: impossible for valid instances
			// because the sharing rule always hands out positive allocations.
			return nil, errNoProgress
		}

		for k, i := range active {
			if alloc[k] <= 0 {
				continue
			}
			profiles[i].AddOn(now, now+dt, alloc[k])
			remaining[i] -= alloc[k] * dt
		}
		now += dt

		// Retire completed tasks (several may finish simultaneously).
		stillActive := active[:0]
		for _, i := range active {
			if remaining[i] <= 1e-9*math.Max(1, inst.Tasks[i].Volume) {
				completions[i] = now
				remaining[i] = 0
			} else {
				stillActive = append(stillActive, i)
			}
		}
		active = stillActive
	}
	return schedule.FromAllocationFunctions(inst, completions, profiles)
}

// errNoProgress reports a stalled equipartition simulation; it cannot occur
// for valid instances and exists to avoid an infinite loop on corrupted data.
var errNoProgress = &noProgressError{}

type noProgressError struct{}

func (*noProgressError) Error() string {
	return "core: equipartition simulation made no progress (corrupt instance?)"
}

// WDEQApproximationRatio runs WDEQ on the instance and returns the ratio of
// its objective to the given reference value (typically the optimum or the
// LowerBound). It returns +Inf if the reference is not positive.
func WDEQApproximationRatio(inst *schedule.Instance, reference float64) (float64, error) {
	s, err := RunWDEQ(inst)
	if err != nil {
		return 0, err
	}
	if reference <= numeric.Eps {
		return math.Inf(1), nil
	}
	return s.WeightedCompletionTime() / reference, nil
}
