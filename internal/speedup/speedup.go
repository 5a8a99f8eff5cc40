// Package speedup defines the processing-rate model of the scheduling kernel:
// how many units of work per unit of time a malleable task processes when it
// is allocated a given number of processors. The paper's model — linear
// speedup up to a per-task degree bound δ — is one Model among several; the
// engine (internal/engine) advances its event loop exclusively through a
// Model, so concave-speedup and time-varying-capacity scenarios are a policy
// choice rather than a fork of the kernel.
//
// Bundled models:
//
//   - LinearCap: the paper's work-preserving model, rate = min(q, δ). This is
//     the default everywhere and the model under which the engine's
//     zero-allocation guarantees are benchmarked.
//   - PowerLaw: concave speedup rate = min(q, δ)^α beyond one processor
//     (linear below: fractional allocations are time-shares), exponent α in
//     (0, 1]; α = 1 degenerates to LinearCap.
//   - Amdahl: rate = q / (σ·q + (1−σ)) beyond one processor, the classic
//     serial-fraction law with rate(1) = 1 and asymptote 1/σ.
//   - Platform: a step-function platform capacity P(t) wrapped around any
//     inner model; the engine re-invokes the policy at every capacity
//     breakpoint (see Budgeter).
//
// Every model must be a stateless value that is safe for concurrent use by
// multiple engine shards: all bundled models are.
package speedup

import (
	"fmt"
	"math"

	"github.com/malleable-sched/malleable/internal/stepfunc"
)

// TaskShape is the slice of a task a model may read: its effective degree
// bound and its optional per-task curve parameter. It deliberately excludes
// volumes and weights — a rate model describes how a task runs, not what it
// is worth, and keeping volumes out preserves the non-clairvoyant layering.
type TaskShape struct {
	// Delta is the task's effective degree bound (already capped at the
	// available capacity by the caller).
	Delta float64
	// Curve is the task's speedup-curve parameter (schedule.Task.Curve): the
	// power-law exponent for PowerLaw, the serial fraction for Amdahl. Zero
	// means "use the model's default", so streams generated without per-task
	// curves run unchanged under every model. Out-of-range values are
	// clamped into the model's domain (exponent to 1, serial fraction to 1);
	// ValidateCurves lets front ends reject such ranges before a run.
	Curve float64
}

// Model maps an allocation of processors to an instantaneous processing rate.
// The engine's event loop is written against this interface: it computes
// the next completion as TimeToProcess(shape, alloc, remaining) and advances
// per-task progress by Rate(shape, alloc)·dt. Under LinearCap (IsLinear) it
// evaluates LinearCap.Rate's expression min(alloc, δ) inline instead.
//
// Contract: Rate must be non-negative, non-decreasing in procs on [0, Delta],
// and zero at procs = 0. TimeToProcess must be the exact inverse of Rate for
// constant allocations: TimeToProcess(t, q, v) = v / Rate(t, q) (and +Inf
// when the rate is zero). MaxUseful returns the smallest allocation achieving
// the task's peak rate — the point beyond which processors are wasted. A
// custom policy may pass min(δ, MaxUseful) as the degree bounds of the
// sharing rule (core.ShareAllocationInto) to pin tasks there; for every
// bundled model it equals the degree bound, so the bundled policies use the
// plain rule.
type Model interface {
	// Name identifies the model in reports and flag values.
	Name() string
	// Rate returns the processing rate (volume per unit time) of a task with
	// shape t allocated procs processors.
	Rate(t TaskShape, procs float64) float64
	// TimeToProcess returns the time needed to process volume v at a constant
	// allocation of procs processors (+Inf if the rate is zero).
	TimeToProcess(t TaskShape, procs, v float64) float64
	// MaxUseful returns the smallest allocation at which the task's rate
	// peaks; allocating beyond it is pure waste.
	MaxUseful(t TaskShape) float64
}

// Budgeter is an optional interface for models whose available platform
// capacity varies over time. The engine queries BudgetAt at every event to
// cap the policy's budget and schedules an extra event at NextBudgetChange so
// allocations are re-negotiated exactly when the capacity steps. Models
// without a Budgeter run under the constant nominal capacity.
type Budgeter interface {
	// BudgetAt returns the capacity available at absolute time now, given the
	// nominal platform capacity p. It must never exceed p.
	BudgetAt(p, now float64) float64
	// NextBudgetChange returns the first time strictly after now at which the
	// budget changes, or +Inf if it never does.
	NextBudgetChange(now float64) float64
	// BudgetEventBound returns an upper bound on the number of budget-change
	// events a run can experience; the engine adds it to its runaway-policy
	// event bound.
	BudgetEventBound() int
}

// LinearCap is the paper's work-preserving malleable-task model: a task
// allocated q processors processes q units of work per unit of time, up to
// its degree bound δ. It is the default model of the whole library and the
// model under which the engine's zero-allocation hot path is benchmarked.
type LinearCap struct{}

// Name implements Model.
func (LinearCap) Name() string { return "linear" }

// Rate implements Model.
func (LinearCap) Rate(t TaskShape, procs float64) float64 {
	if procs <= 0 {
		return 0
	}
	return math.Min(procs, t.Delta)
}

// TimeToProcess implements Model.
func (m LinearCap) TimeToProcess(t TaskShape, procs, v float64) float64 {
	return timeAtRate(m.Rate(t, procs), v)
}

// MaxUseful implements Model.
func (LinearCap) MaxUseful(t TaskShape) float64 { return t.Delta }

// PowerLaw is the concave power-law speedup model: a task allocated q
// processors runs at rate min(q, δ)^α. The exponent α in (0, 1] is the
// model's Alpha unless the task carries its own Curve parameter; α = 1 is
// exactly LinearCap. Sub-linear exponents capture parallelization overheads
// (communication, synchronization) that grow with the allocation.
type PowerLaw struct {
	// Alpha is the default exponent, used for tasks whose Curve is zero. Zero
	// means DefaultAlpha.
	Alpha float64
}

// DefaultAlpha is the exponent a zero-valued PowerLaw uses.
const DefaultAlpha = 0.75

func (m PowerLaw) alpha(t TaskShape) float64 {
	a := m.Alpha
	if t.Curve > 0 {
		a = t.Curve
	}
	if a <= 0 {
		a = DefaultAlpha
	}
	if a > 1 {
		a = 1
	}
	return a
}

// Name implements Model.
func (m PowerLaw) Name() string { return "powerlaw" }

// Rate implements Model. At or below one processor the allocation is a
// time-share of a single processor and therefore linear (rate = q); the
// power law applies beyond one processor, where parallel overheads exist.
// Without the split a concave curve would be super-linear for fractional
// allocations (q^α > q when q < 1), which no real task is.
func (m PowerLaw) Rate(t TaskShape, procs float64) float64 {
	q := math.Min(procs, t.Delta)
	if q <= 0 {
		return 0
	}
	if q <= 1 {
		return q
	}
	return math.Pow(q, m.alpha(t))
}

// TimeToProcess implements Model.
func (m PowerLaw) TimeToProcess(t TaskShape, procs, v float64) float64 {
	return timeAtRate(m.Rate(t, procs), v)
}

// MaxUseful implements Model. The power law is strictly increasing, so the
// degree bound remains the saturation point.
func (PowerLaw) MaxUseful(t TaskShape) float64 { return t.Delta }

// Amdahl is the serial-fraction speedup model: a task with serial fraction σ
// allocated q processors runs at rate q / (σ·q + (1−σ)) — one processor gives
// rate 1, infinitely many approach 1/σ. σ is the model's Sigma unless the
// task carries its own Curve parameter.
type Amdahl struct {
	// Sigma is the default serial fraction in [0, 1), used for tasks whose
	// Curve is zero. Zero means DefaultSigma.
	Sigma float64
}

// DefaultSigma is the serial fraction a zero-valued Amdahl uses.
const DefaultSigma = 0.1

func (m Amdahl) sigma(t TaskShape) float64 {
	s := m.Sigma
	if t.Curve > 0 {
		s = t.Curve
	}
	if s <= 0 {
		s = DefaultSigma
	}
	if s >= 1 {
		s = 1
	}
	return s
}

// Name implements Model.
func (m Amdahl) Name() string { return "amdahl" }

// Rate implements Model. As with PowerLaw, allocations at or below one
// processor are time-shared and linear; Amdahl's law applies beyond one.
func (m Amdahl) Rate(t TaskShape, procs float64) float64 {
	q := math.Min(procs, t.Delta)
	if q <= 0 {
		return 0
	}
	if q <= 1 {
		return q
	}
	s := m.sigma(t)
	return q / (s*q + (1 - s))
}

// TimeToProcess implements Model.
func (m Amdahl) TimeToProcess(t TaskShape, procs, v float64) float64 {
	return timeAtRate(m.Rate(t, procs), v)
}

// MaxUseful implements Model. Amdahl's law is strictly increasing in q for
// σ < 1, so the degree bound is the saturation point — except for the fully
// serial edge case (σ clamped to 1), where the rate is flat beyond one
// processor and anything above one is waste.
func (m Amdahl) MaxUseful(t TaskShape) float64 {
	if m.sigma(t) >= 1 {
		return math.Min(t.Delta, 1)
	}
	return t.Delta
}

// Platform wraps an inner model with a time-varying platform capacity P(t):
// at every instant the engine caps the policy's budget at min(nominal P,
// Profile(t)) and re-invokes the policy whenever the profile steps. Within a
// profile segment the capacity is constant, so the event-to-event integration
// of the inner model stays exact — time variation costs events, not accuracy.
type Platform struct {
	// Profile is the capacity step function. It must be non-negative.
	Profile *stepfunc.StepFunc
	// Inner is the per-task rate model; nil means LinearCap.
	Inner Model
}

func (m Platform) inner() Model {
	if m.Inner == nil {
		return LinearCap{}
	}
	return m.Inner
}

// Name implements Model. The common linear-inner form returns a constant so
// that stamping the name into per-run results stays allocation-free.
func (m Platform) Name() string {
	if m.Inner == nil {
		return "platform"
	}
	return "platform+" + m.Inner.Name()
}

// Rate implements Model.
func (m Platform) Rate(t TaskShape, procs float64) float64 {
	return m.inner().Rate(t, procs)
}

// TimeToProcess implements Model.
func (m Platform) TimeToProcess(t TaskShape, procs, v float64) float64 {
	return m.inner().TimeToProcess(t, procs, v)
}

// MaxUseful implements Model.
func (m Platform) MaxUseful(t TaskShape) float64 { return m.inner().MaxUseful(t) }

// BudgetAt implements Budgeter.
func (m Platform) BudgetAt(p, now float64) float64 {
	if m.Profile == nil {
		return p
	}
	v := m.Profile.Value(now)
	if v < 0 {
		v = 0
	}
	return math.Min(p, v)
}

// NextBudgetChange implements Budgeter.
func (m Platform) NextBudgetChange(now float64) float64 {
	if m.Profile == nil {
		return math.Inf(1)
	}
	return m.Profile.NextBreakpointAfter(now)
}

// BudgetEventBound implements Budgeter.
func (m Platform) BudgetEventBound() int {
	if m.Profile == nil {
		return 0
	}
	return m.Profile.NumPieces()
}

// timeAtRate is the shared inverse helper: v units of work at a constant rate.
func timeAtRate(rate, v float64) float64 {
	if v <= 0 {
		return 0
	}
	if rate <= 0 {
		return math.Inf(1)
	}
	return v / rate
}

// IsLinear reports whether the model is the paper's work-preserving LinearCap
// model (nil counts: it is the default). Schedule reconstruction — turning a
// decision trace into a column-based schedule whose allocation profiles
// integrate to the task volumes — is only sound under it.
func IsLinear(m Model) bool {
	if m == nil {
		return true
	}
	_, ok := m.(LinearCap)
	return ok
}

// ValidateCurves checks that per-task curve parameters drawn from [lo, hi]
// are meaningful under the model: out-of-domain curves would be silently
// clamped (see TaskShape.Curve), turning a load test into a degenerate run
// with no warning. Front ends that know both the model and the curve range
// (mwct loadtest, the perf scenarios) call this before starting.
func ValidateCurves(m Model, lo, hi float64) error {
	if hi <= 0 {
		return nil // curves disabled
	}
	switch mm := m.(type) {
	case PowerLaw:
		if hi > 1 {
			return fmt.Errorf("speedup: power-law exponent curves must lie in (0, 1], got range [%g, %g]", lo, hi)
		}
	case Amdahl:
		if hi >= 1 {
			return fmt.Errorf("speedup: amdahl serial-fraction curves must lie in (0, 1), got range [%g, %g]", lo, hi)
		}
	case Platform:
		return ValidateCurves(mm.inner(), lo, hi)
	}
	return nil
}

// Validate checks the model's basic contract on a probe shape: zero rate at
// zero processors, non-negative non-decreasing rates, and TimeToProcess
// consistent with Rate. The engine runs it once per run on non-default
// models, so a misconfigured custom model fails loudly instead of producing
// plausible-looking nonsense.
func Validate(m Model) error {
	shape := TaskShape{Delta: 4}
	if r := m.Rate(shape, 0); r != 0 {
		return fmt.Errorf("speedup: model %q has non-zero rate %g at zero processors", m.Name(), r)
	}
	prev := 0.0
	for _, q := range []float64{0.25, 0.5, 1, 2, 4} {
		r := m.Rate(shape, q)
		if math.IsNaN(r) || r < 0 {
			return fmt.Errorf("speedup: model %q has invalid rate %g at %g processors", m.Name(), r, q)
		}
		if r < prev {
			return fmt.Errorf("speedup: model %q rate decreases from %g to %g at %g processors", m.Name(), prev, r, q)
		}
		prev = r
		if r > 0 {
			want := 1.0 / r
			if got := m.TimeToProcess(shape, q, 1); math.Abs(got-want) > 1e-9*math.Max(1, want) {
				return fmt.Errorf("speedup: model %q TimeToProcess %g is inconsistent with rate %g", m.Name(), got, r)
			}
		}
	}
	return nil
}
