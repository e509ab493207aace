package harness

import (
	"fmt"
	"math"

	"fvp/internal/sample"
)

// WarmupMode selects how the warmup region is simulated.
type WarmupMode string

// Warmup modes.
const (
	// WarmupDetailed runs the warmup region through the full OOO model —
	// O(cycles), bit-identical to historical behavior. The zero value of
	// Options selects it.
	WarmupDetailed WarmupMode = "detailed"
	// WarmupFunctional drives the warmup region through the machine's
	// warming taps (ooo.Core.WarmFunctional) — O(instructions), trading a
	// bounded fidelity loss (see the warming-fidelity gate) for ~an order
	// of magnitude less warmup work.
	WarmupFunctional WarmupMode = "functional"
)

// WarmupModes lists the accepted mode names, for CLIs and validators.
func WarmupModes() []string {
	return []string{string(WarmupDetailed), string(WarmupFunctional)}
}

// InvalidOptionsError reports a degenerate Options field. It mirrors the
// façade's fvp.InvalidSpecError shape so service layers can translate
// field-for-field.
type InvalidOptionsError struct {
	// Field is the Options field at fault.
	Field string
	// Value is the offending value (when numeric).
	Value uint64
	// Limit is the bound that was exceeded, when one applies.
	Limit uint64
	// Reason says what is wrong.
	Reason string
}

// Error implements error.
func (e *InvalidOptionsError) Error() string {
	if e.Limit > 0 {
		return fmt.Sprintf("harness: invalid %s %d (limit %d): %s", e.Field, e.Value, e.Limit, e.Reason)
	}
	return fmt.Sprintf("harness: invalid %s: %s", e.Field, e.Reason)
}

// Validate rejects degenerate run shapes before any simulation work:
// an empty measured region, a warmup+measure total that overflows the
// instruction counter, a negative region count or worker bound, more
// regions than measured instructions, an unknown warmup mode, and
// per-interval observation combined with region-parallel runs (samples
// from concurrent regions would interleave meaninglessly).
func (o Options) Validate() error {
	if o.MeasureInsts == 0 {
		return &InvalidOptionsError{Field: "MeasureInsts", Reason: "measured region is empty"}
	}
	if o.WarmupInsts > math.MaxUint64-o.MeasureInsts {
		return &InvalidOptionsError{
			Field: "WarmupInsts", Value: o.WarmupInsts, Limit: math.MaxUint64 - o.MeasureInsts,
			Reason: "warmup + measure overflows the instruction counter",
		}
	}
	switch o.WarmupMode {
	case "", WarmupDetailed, WarmupFunctional:
	default:
		return &InvalidOptionsError{
			Field:  "WarmupMode",
			Reason: fmt.Sprintf("unknown mode %q (valid: %v)", o.WarmupMode, WarmupModes()),
		}
	}
	if o.Regions < 0 {
		return &InvalidOptionsError{Field: "Regions", Reason: "region count < 1"}
	}
	if o.RegionWorkers < 0 {
		return &InvalidOptionsError{Field: "RegionWorkers", Reason: "worker count < 0"}
	}
	if o.Regions > 1 {
		if uint64(o.Regions) > o.MeasureInsts {
			return &InvalidOptionsError{
				Field: "Regions", Value: uint64(o.Regions), Limit: o.MeasureInsts,
				Reason: "more regions than measured instructions",
			}
		}
		if o.OnSample != nil || o.Tracer != nil {
			return &InvalidOptionsError{
				Field:  "Regions",
				Reason: "per-interval observation requires a single region",
			}
		}
	}
	if err := o.validateSampling(); err != nil {
		return err
	}
	return nil
}

// validateSampling rejects degenerate sampling shapes: a unit count below
// the statistical minimum, a nonsensical CI target, a detailed budget that
// exceeds the population, and combinations with features that assume a
// contiguous measured stream.
func (o Options) validateSampling() error {
	s := o.Sampling
	if !s.enabled() {
		return nil
	}
	if s.Units < 0 || (s.Units > 0 && s.Units < sample.MinUnits) {
		return &InvalidOptionsError{
			Field:  "Sampling.Units",
			Reason: "at least two sample units are needed for a variance estimate",
		}
	}
	if s.TargetCI < 0 || s.TargetCI >= 1 {
		return &InvalidOptionsError{
			Field:  "Sampling.TargetCI",
			Reason: fmt.Sprintf("relative CI target %v outside [0, 1)", s.TargetCI),
		}
	}
	if s.MaxUnits < 0 {
		return &InvalidOptionsError{Field: "Sampling.MaxUnits", Reason: "unit cap < 0"}
	}
	if budget := uint64(s.units()) * s.unitInsts(); budget > o.MeasureInsts {
		return &InvalidOptionsError{
			Field: "Sampling.Units", Value: budget, Limit: o.MeasureInsts,
			Reason: "detailed budget units*unit_insts exceeds the measured region",
		}
	}
	if o.Regions > 1 {
		return &InvalidOptionsError{
			Field:  "Sampling",
			Reason: "sampling and region-parallel runs are mutually exclusive",
		}
	}
	if o.OnSample != nil || o.Tracer != nil {
		return &InvalidOptionsError{
			Field:  "Sampling",
			Reason: "per-interval observation requires a contiguous (non-sampled) run",
		}
	}
	return nil
}

// warmupMode resolves the default.
func (o Options) warmupMode() WarmupMode {
	if o.WarmupMode == "" {
		return WarmupDetailed
	}
	return o.WarmupMode
}

// regionCount resolves the default.
func (o Options) regionCount() int {
	if o.Regions < 1 {
		return 1
	}
	return o.Regions
}
