package harness

import (
	"context"

	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/sample"
	"fvp/internal/workload"
)

// DefaultSampleWarmupInsts is the per-unit warmup window of a sampled run
// when Sampling.WarmupInsts is 0. Each unit restores an architectural
// checkpoint into a cold machine, so the warmup must rebuild not just
// caches but the long-history structures — BTB and value tables spanning
// a workload's whole handler working set — whose time constants are far
// longer than a unit. Empirically the sampled IPC converges on the
// full-detail IPC at ~200k warmed instructions across the golden matrix
// (shorter windows leave a systematic bias on the big-footprint
// workloads); the window is clamped near the stream start. Because this
// cost is per-unit and fixed, sampling pays off when MeasureInsts is much
// larger than Units × (WarmupInsts + UnitInsts) — paper-scale regions.
const DefaultSampleWarmupInsts = 200_000

// Sampling configures SMARTS-style sampled simulation of the measured
// region: instead of detail-simulating all MeasureInsts instructions, K
// sample units at systematic positions are simulated in detail (each
// restored from an architectural checkpoint and re-warmed), the gaps are
// covered by the functional checkpoint scan, and the per-unit results are
// aggregated into a population estimate with a 95% confidence interval.
// The zero value disables sampling.
type Sampling struct {
	// Units is the sample-unit count K. 0 with a TargetCI set starts the
	// auto-tune loop at sample.DefaultUnits; 0 without one disables
	// sampling. Minimum sample.MinUnits (a single unit has no variance
	// estimate).
	Units int
	// UnitInsts is the detailed length of each unit
	// (0 = sample.DefaultUnitInsts).
	UnitInsts uint64
	// WarmupInsts is the per-unit warmup run before each unit's measured
	// slice — functional bulk plus detailed tail, exactly like a
	// WarmupFunctional run's warmup (0 = DefaultSampleWarmupInsts).
	WarmupInsts uint64
	// TargetCI, when > 0, auto-tunes: the unit count doubles until the
	// IPC estimate's relative 95% CI half-width is <= TargetCI (e.g. 0.02
	// for ±2%) or MaxUnits is reached.
	TargetCI float64
	// MaxUnits caps auto-tune growth (0 = sample.DefaultMaxUnits). The cap
	// is additionally clamped to MeasureInsts/UnitInsts.
	MaxUnits int
	// Seed selects the systematic phase: units sit at the same
	// seed-derived offset within each frame. Results are deterministic for
	// a fixed Seed regardless of worker count.
	Seed uint64
}

// enabled reports whether the options request a sampled run.
func (s Sampling) enabled() bool { return s.Units != 0 || s.TargetCI != 0 }

// units resolves the starting unit count.
func (s Sampling) units() int {
	if s.Units == 0 {
		return sample.DefaultUnits
	}
	return s.Units
}

// unitInsts resolves the per-unit detailed length.
func (s Sampling) unitInsts() uint64 {
	if s.UnitInsts == 0 {
		return sample.DefaultUnitInsts
	}
	return s.UnitInsts
}

// warmupInsts resolves the per-unit warmup window.
func (s Sampling) warmupInsts() uint64 {
	if s.WarmupInsts == 0 {
		return DefaultSampleWarmupInsts
	}
	return s.WarmupInsts
}

// SamplingReport is the statistical summary attached to a sampled run's
// Result. The point metrics on the Result itself (IPC, Stats, Meter) are
// the instruction-weighted stitch of the units; the Metric fields here
// carry the per-unit mean, standard error, and 95% CI the fidelity and
// coverage gates consume.
type SamplingReport struct {
	// PlannedUnits, UnitInsts, WarmupInsts, Seed and TargetCI echo the
	// plan of the final round.
	PlannedUnits int
	UnitInsts    uint64
	WarmupInsts  uint64
	Seed         uint64
	TargetCI     float64
	// Rounds counts auto-tune iterations (1 when TargetCI is 0).
	Rounds int
	// Converged is false only when auto-tune hit its unit cap with the
	// IPC interval still wider than TargetCI.
	Converged bool
	// SampledInsts counts the instructions measured in detail across
	// units — the detailed fraction is SampledInsts/MeasureInsts.
	SampledInsts uint64
	// IPC, Coverage and Accuracy are the per-unit population estimates.
	IPC      sample.Metric
	Coverage sample.Metric
	Accuracy sample.Metric
	// Units holds the final round's per-unit results, in plan order.
	Units []UnitResult
}

// runSampledCtx is the sampled path of RunOneCtx: each planned round runs
// the plan's units through runUnits with the sampling warmup window and
// functional warming, and the per-unit results are estimated. When
// TargetCI is set, sample.AutoTune re-plans with a doubled unit count
// until the IPC interval meets the target.
func runSampledCtx(ctx context.Context, w workload.Workload, p *prog.Program, coreCfg ooo.Config, pf PredFactory, opt Options) (Result, error) {
	sp := opt.Sampling

	var (
		res       Result
		units     []UnitResult
		ffInsts   uint64
		ffSeconds float64
	)
	round := func(plan sample.Plan) ([]float64, error) {
		// Sampled units always warm through the functional taps; the
		// Result records that path rather than the (unused) run-level
		// warmup mode.
		r, rs, err := runUnits(ctx, w, p, coreCfg, pf, opt, plan.Units, sp.warmupInsts(), WarmupFunctional)
		if err != nil {
			return nil, err
		}
		res, units = r, rs
		ffInsts += r.FFInsts
		ffSeconds += r.FFSeconds
		values := make([]float64, len(rs))
		for i, u := range rs {
			values[i] = u.IPC
		}
		return values, nil
	}

	cfg := sample.Config{
		MeasureInsts: opt.MeasureInsts,
		Units:        sp.units(),
		UnitInsts:    sp.unitInsts(),
		Seed:         sp.Seed,
	}
	out, err := sample.AutoTune(cfg, sp.TargetCI, sp.MaxUnits, round)
	if err != nil {
		return Result{}, err
	}

	coverage := make([]float64, len(units))
	accuracy := make([]float64, len(units))
	for i := range units {
		coverage[i] = units[i].Meter.Coverage()
		accuracy[i] = units[i].Meter.Accuracy()
	}
	// Earlier auto-tune rounds were fast-forwarded too.
	res.FFInsts, res.FFSeconds = ffInsts, ffSeconds
	res.Sampling = &SamplingReport{
		PlannedUnits: len(out.Plan.Units),
		UnitInsts:    out.Plan.UnitInsts,
		WarmupInsts:  sp.warmupInsts(),
		Seed:         sp.Seed,
		TargetCI:     sp.TargetCI,
		Rounds:       out.Rounds,
		Converged:    out.Converged,
		SampledInsts: res.Stats.Retired,
		IPC:          out.Metric,
		Coverage:     sample.Estimate(coverage),
		Accuracy:     sample.Estimate(accuracy),
		Units:        units,
	}
	return res, nil
}
