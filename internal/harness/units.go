package harness

import (
	"context"
	"runtime"
	"sync"
	"time"

	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/sample"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

// UnitResult is the measured outcome of one checkpointed unit: a region of
// a region-parallel run or a sample unit of a sampled run.
type UnitResult struct {
	// Index is the unit's position in its unit list (program order).
	Index int
	// StartSeq is the absolute dynamic-instruction position of the unit's
	// first measured instruction (warmup region included). The unit's
	// checkpoint sits WarmupInsts earlier.
	StartSeq uint64
	// WarmupInsts is the unit's actual warmup length (clamped near the
	// stream start).
	WarmupInsts uint64
	// IPC is the unit's measured IPC.
	IPC float64
	// Stats and Meter cover the unit's measured slice only.
	Stats ooo.RunStats
	Meter vp.Meter
	// FFInsts / FFSeconds are the unit's own functional-warmup costs
	// (the shared checkpoint scan is accounted in the Result).
	FFInsts   uint64
	FFSeconds float64
}

// tileUnits splits a measured region of n instructions into k consecutive
// units: unit i starts at i*step and the last one also takes the
// remainder, so their union is exactly [0, n). Validate guarantees
// step >= 1.
func tileUnits(n uint64, k int) []sample.Unit {
	step := n / uint64(k)
	units := make([]sample.Unit, k)
	for i := range units {
		units[i] = sample.Unit{Index: i, Start: uint64(i) * step, Len: step}
	}
	units[k-1].Len = n - step*uint64(k-1)
	return units
}

// runUnits is the checkpointed-unit executor behind region-parallel and
// sampled runs. One architectural pass over the program takes a checkpoint
// at each unit's warmup start; each unit is then restored, warmed for warm
// instructions in mode and detail-simulated on its own core, concurrently
// up to RegionWorkers. Unit offsets are relative to the measured region,
// which begins after opt.WarmupInsts. It returns the stitched Result
// together with the per-unit results in list order.
func runUnits(ctx context.Context, w workload.Workload, p *prog.Program, coreCfg ooo.Config, pf PredFactory, opt Options, units []sample.Unit, warm uint64, mode WarmupMode) (Result, []UnitResult, error) {
	// Checkpoint scan: pure architectural execution visits each unit's
	// warmup start in ascending order. Unit i's measured slice begins at
	// absolute position WarmupInsts + Start_i; its warmup begins warm
	// instructions earlier, clamped at the stream start.
	t0 := time.Now()
	ex := prog.NewExec(p)
	cps := make([]*prog.Checkpoint, len(units))
	warms := make([]uint64, len(units))
	for i, u := range units {
		measureStart := opt.WarmupInsts + u.Start
		warms[i] = min(warm, measureStart)
		if at := measureStart - warms[i]; at > ex.Seq() {
			ex.Run(at-ex.Seq(), nil)
		}
		cps[i] = ex.Checkpoint()
	}
	scanInsts := ex.Seq()
	scanSeconds := time.Since(t0).Seconds()

	workers := opt.RegionWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]UnitResult, len(units))
	errs := make([]error, len(units))
	predictor := "baseline"
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range units {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var pred vp.Predictor
			if pf != nil {
				pred = pf()
				if i == 0 {
					predictor = pred.Name()
				}
			}
			unitOpt := opt
			unitOpt.WarmupMode = mode
			unitOpt.WarmupInsts = warms[i]
			seg, err := runSegmentCtx(ctx, coreCfg, pred, cps[i].Restore(), cps[i].Memory(), p.WarmRanges, unitOpt, units[i].Len)
			if err != nil {
				errs[i] = err
				return
			}
			seg.Index, seg.StartSeq, seg.WarmupInsts = i, cps[i].Seq()+warms[i], warms[i]
			results[i] = seg
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, nil, err
		}
	}
	return stitch(w, coreCfg, predictor, mode, results, scanInsts, scanSeconds), results, nil
}

// stitch sums per-unit stats by field-wise addition into one Result, and
// adds the units' fast-forward costs to the shared scan's. Stitching is
// exact for additive counters, so the aggregate IPC is the instruction-
// weighted mean of the unit IPCs.
func stitch(w workload.Workload, coreCfg ooo.Config, predictor string, mode WarmupMode, units []UnitResult, ffInsts uint64, ffSeconds float64) Result {
	var st ooo.RunStats
	var mt vp.Meter
	for i := range units {
		st = statsAdd(st, units[i].Stats)
		mt = meterAdd(mt, units[i].Meter)
		ffInsts += units[i].FFInsts
		ffSeconds += units[i].FFSeconds
	}
	return Result{
		Workload:   w.Name,
		Category:   w.Category,
		Core:       coreCfg.Name,
		Predictor:  predictor,
		WarmupMode: mode,
		IPC:        st.IPC(),
		Coverage:   mt.Coverage(),
		Accuracy:   mt.Accuracy(),
		Stats:      st,
		Meter:      mt,
		FFInsts:    ffInsts,
		FFSeconds:  ffSeconds,
	}
}

// statsAdd sums snapshots field-wise (the inverse pairing of statsDelta).
func statsAdd(a, b ooo.RunStats) ooo.RunStats {
	d := a
	d.Cycles += b.Cycles
	d.Retired += b.Retired
	d.RetiredLoads += b.RetiredLoads
	d.RetiredStores += b.RetiredStores
	d.Fetched += b.Fetched
	d.BranchMispredicts += b.BranchMispredicts
	d.VPFlushes += b.VPFlushes
	d.MemOrderFlushes += b.MemOrderFlushes
	d.Forwards += b.Forwards
	d.RetireStallCycles += b.RetireStallCycles
	d.EmptyWindowCycles += b.EmptyWindowCycles
	for i := range d.LoadsByLevel {
		d.LoadsByLevel[i] += b.LoadsByLevel[i]
	}
	d.StallHeadLoads += b.StallHeadLoads
	d.StallHeadOther += b.StallHeadOther
	d.SkippedCycles += b.SkippedCycles
	d.SkipEvents += b.SkipEvents
	for i := range d.Breakdown {
		d.Breakdown[i] += b.Breakdown[i]
	}
	return d
}

func meterAdd(a, b vp.Meter) vp.Meter {
	return vp.Meter{
		Loads:          a.Loads + b.Loads,
		Insts:          a.Insts + b.Insts,
		PredictedLoads: a.PredictedLoads + b.PredictedLoads,
		PredictedOther: a.PredictedOther + b.PredictedOther,
		Correct:        a.Correct + b.Correct,
		Wrong:          a.Wrong + b.Wrong,
		Flushes:        a.Flushes + b.Flushes,
	}
}

// RegionFidelity compares a region-stitched result against a monolithic
// run of the same spec: it returns the relative IPC error
// |stitched - mono| / mono. The warming-fidelity gate in CI holds the
// geomean of this error across the golden matrix under its threshold.
func RegionFidelity(stitched, mono Result) float64 {
	if mono.IPC == 0 {
		return 0
	}
	d := stitched.IPC - mono.IPC
	if d < 0 {
		d = -d
	}
	return d / mono.IPC
}
