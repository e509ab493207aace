package main

// The traced run. It times calls into each module's public functions from
// outside the program: a predictor wrapper (core), an instruction-source
// wrapper around *prog.Exec (prog), spans around Core.RunCtx (ooo), and,
// for the request plane, wrappers around the store interfaces, the
// service's run function and each node's HTTP handler. The harness's
// single-segment and sampled paths are rebuilt here from public calls so
// the wrappers can be attached; every traced point must reproduce the
// untraced RunStats and Meter byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"time"

	"fvp"
	"fvp/internal/cluster"
	"fvp/internal/harness"
	"fvp/internal/isa"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/sample"
	"fvp/internal/simd"
	"fvp/internal/store"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

var epoch = time.Now()

// now is a monotonic clock in nanoseconds; one runtime clock read, the
// cheapest stamp the standard library offers.
func now() int64 { return int64(time.Since(epoch)) }

// callTimer times about one call in 16, picked pseudo-randomly so a
// loop's period cannot alias with it, and scales the timed share up to
// all calls. Timing every call would make the stamps cost more than the
// functional executor they measure.
type callTimer struct {
	calls, timed, ns int64
	x                uint32
}

// begin counts a call and returns its start stamp, or -1 if it is not
// timed.
func (c *callTimer) begin() int64 {
	c.calls++
	c.x ^= c.x << 13
	c.x ^= c.x >> 17
	c.x ^= c.x << 5
	if c.x&15 != 0 {
		return -1
	}
	return now()
}

func (c *callTimer) end(t0 int64) {
	if t0 >= 0 {
		c.ns += now() - t0
		c.timed++
	}
}

// total estimates the time spent in all calls so far.
func (c *callTimer) total() int64 {
	if c.timed == 0 {
		return 0
	}
	return c.ns * c.calls / c.timed
}

func newCallTimer() callTimer { return callTimer{x: 0x9e3779b9} }

// timedPred times calls into a value predictor.
type timedPred struct {
	vp.Predictor
	ct      callTimer
	lookups int64
}

func (p *timedPred) Lookup(d *isa.DynInst, c *vp.Ctx) vp.Prediction {
	t := p.ct.begin()
	pr := p.Predictor.Lookup(d, c)
	p.ct.end(t)
	p.lookups++
	return pr
}

func (p *timedPred) Train(d *isa.DynInst, c *vp.Ctx, info vp.TrainInfo) {
	t := p.ct.begin()
	p.Predictor.Train(d, c, info)
	p.ct.end(t)
}

func (p *timedPred) OnForward(loadPC, storePC uint64) {
	t := p.ct.begin()
	p.Predictor.OnForward(loadPC, storePC)
	p.ct.end(t)
}

func (p *timedPred) OnRetire(d *isa.DynInst) {
	t := p.ct.begin()
	p.Predictor.OnRetire(d)
	p.ct.end(t)
}

func (p *timedPred) OnFlush() {
	t := p.ct.begin()
	p.Predictor.OnFlush()
	p.ct.end(t)
}

// timedWarmPred keeps a wrapped predictor's vp.Warmer fast path visible:
// ooo's functional warmup picks its protocol by type assertion.
type timedWarmPred struct {
	*timedPred
	w vp.Warmer
}

func (p timedWarmPred) WarmObserve(d *isa.DynInst, c *vp.Ctx, info vp.TrainInfo) {
	t := p.ct.begin()
	p.w.WarmObserve(d, c, info)
	p.ct.end(t)
}

// wrapPred returns the predictor to hand the core and its timer. The
// baseline (nil) is never wrapped: the core's functional warmup skips
// the call protocol only for a bare vp.None.
func wrapPred(p vp.Predictor) (vp.Predictor, *timedPred) {
	if p == nil {
		return nil, nil
	}
	tp := &timedPred{Predictor: p, ct: newCallTimer()}
	if w, ok := p.(vp.Warmer); ok {
		return timedWarmPred{tp, w}, tp
	}
	return tp, tp
}

// timedSource times the functional executor behind the core's fetch.
type timedSource struct {
	ex *prog.Exec
	ct callTimer
}

func (s *timedSource) Next(d *isa.DynInst) bool {
	t := s.ct.begin()
	ok := s.ex.Next(d)
	s.ct.end(t)
	return ok
}

// simTally accumulates the simulator layers over a traced pass.
type simTally struct {
	oooSelfNs, oooInsts int64 // RunCtx spans minus child spans; instructions they retired
	predNs, predLookups int64
	predInsts, predDet  int64 // instructions simulated (all / detailed) with a predictor attached
	progNs, progInsts   int64
	ffInsts             int64
	measured            ooo.RunStats // measured-region totals
	predMeter           vp.Meter     // measured-region totals of points with a predictor
	brMisp, l1dMiss     uint64
	llcMiss, dramLoads  uint64
	units, points       int
	regionDet, region   uint64
}

func (t *simTally) add(u simTally) {
	t.oooSelfNs += u.oooSelfNs
	t.oooInsts += u.oooInsts
	t.predNs += u.predNs
	t.predLookups += u.predLookups
	t.predInsts += u.predInsts
	t.predDet += u.predDet
	t.progNs += u.progNs
	t.progInsts += u.progInsts
	t.ffInsts += u.ffInsts
	fieldwise(&t.measured, u.measured, addU)
	fieldwise(&t.predMeter, u.predMeter, addU)
	t.brMisp += u.brMisp
	t.l1dMiss += u.l1dMiss
	t.llcMiss += u.llcMiss
	t.dramLoads += u.dramLoads
	t.units += u.units
	t.points += u.points
	t.regionDet += u.regionDet
	t.region += u.region
}

func addU(a, b uint64) uint64 { return a + b }
func subU(a, b uint64) uint64 { return a - b }

// fieldwise sets every uint64 of *dst (struct fields and array elements,
// recursively) to f(dst's value, src's value). RunStats and Meter are
// made of nothing else.
func fieldwise[T any](dst *T, src T, f func(a, b uint64) uint64) {
	var walk func(d, s reflect.Value)
	walk = func(d, s reflect.Value) {
		switch d.Kind() {
		case reflect.Uint64:
			d.SetUint(f(d.Uint(), s.Uint()))
		case reflect.Array:
			for i := 0; i < d.Len(); i++ {
				walk(d.Index(i), s.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < d.NumField(); i++ {
				walk(d.Field(i), s.Field(i))
			}
		default:
			panic("fieldwise: unsupported field kind " + d.Kind().String())
		}
	}
	walk(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src))
}

// memCounters are the cumulative branch and memory-system counters the
// per-layer metrics difference across the measured region.
func memCounters(c *ooo.Core) [4]uint64 {
	h, b := c.Hierarchy(), c.Branch()
	return [4]uint64{
		b.Dir.Mispredicts + b.Indirect.Mispredicts,
		h.L1D.Stats.Misses,
		h.LLC.Stats.Misses,
		h.DemandLoads[3],
	}
}

// detailTail mirrors the harness: a functional warmup hands over to the
// detailed pipeline for its last min(warmup/8, 2048) instructions.
func detailTail(warmup uint64) uint64 {
	if tail := warmup / 8; tail < sampledTail {
		return tail
	}
	return sampledTail
}

// tracedSegment is the harness's single-segment path rebuilt from public
// calls with the wrappers attached: warm caches, warm up (detailed, or
// functional with a detailed tail), then measure.
func tracedSegment(ctx context.Context, pred vp.Predictor, ex *prog.Exec, mem *prog.Memory, warmRanges []prog.WarmRange, warmup uint64, functional bool, measure uint64) (ooo.RunStats, vp.Meter, simTally, error) {
	var t simTally
	src := &timedSource{ex: ex, ct: newCallTimer()}
	wp, tp := wrapPred(pred)
	predNs := func() int64 {
		if tp == nil {
			return 0
		}
		return tp.ct.total()
	}
	c := ooo.New(ooo.Skylake(), wp, src, mem)
	c.WarmCaches(warmRanges)
	run := func(target uint64) error {
		r0, child0 := c.Stats.Retired, src.ct.total()+predNs()
		t0 := now()
		_, err := c.RunCtx(ctx, target)
		t.oooSelfNs += now() - t0 - (src.ct.total() + predNs() - child0)
		t.oooInsts += int64(c.Stats.Retired - r0)
		return err
	}
	if functional {
		tail := detailTail(warmup)
		t.ffInsts += int64(c.WarmFunctional(warmup - tail))
		if err := run(c.Stats.Retired + tail); err != nil {
			return ooo.RunStats{}, vp.Meter{}, t, err
		}
	} else if err := run(warmup); err != nil {
		return ooo.RunStats{}, vp.Meter{}, t, err
	}
	warmStats, warmMeter, mem0 := c.Stats, c.Meter, memCounters(c)
	if err := run(warmStats.Retired + measure); err != nil {
		return ooo.RunStats{}, vp.Meter{}, t, err
	}
	c.FinishObservation()
	st, mt, mem1 := c.Stats, c.Meter, memCounters(c)
	fieldwise(&st, warmStats, subU)
	fieldwise(&mt, warmMeter, subU)

	t.progNs, t.progInsts = src.ct.total(), src.ct.calls
	t.measured = st
	if tp != nil {
		t.predNs, t.predLookups = predNs(), tp.lookups
		t.predInsts, t.predDet = t.oooInsts+t.ffInsts, t.oooInsts
		t.predMeter = mt
	}
	t.brMisp, t.l1dMiss, t.llcMiss, t.dramLoads = mem1[0]-mem0[0], mem1[1]-mem0[1], mem1[2]-mem0[2], mem1[3]-mem0[3]
	return st, mt, t, nil
}

// predFactory maps the façade predictors the benchmark uses to the
// harness's constructors (nil: baseline).
func predFactory(p fvp.Predictor) harness.PredFactory {
	if p == fvp.PredFVP {
		return harness.Factory(harness.SpecFVP)
	}
	return nil
}

func newPred(pf harness.PredFactory) vp.Predictor {
	if pf == nil {
		return nil
	}
	return pf()
}

// tracedPoint simulates one spec on the rebuilt path.
func tracedPoint(ctx context.Context, spec fvp.RunSpec) (ooo.RunStats, vp.Meter, simTally, error) {
	w, ok := workload.ByName(spec.Workload)
	if !ok {
		return ooo.RunStats{}, vp.Meter{}, simTally{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	p := w.Build()
	pf := predFactory(spec.Predictor)
	if spec.SampleUnits == 0 {
		st, mt, t, err := tracedSegment(ctx, newPred(pf), prog.NewExec(p), p.BuildMemory(), p.WarmRanges, spec.WarmupInsts, false, spec.MeasureInsts)
		t.points, t.regionDet, t.region = 1, st.Retired, spec.MeasureInsts
		return st, mt, t, err
	}
	return tracedSampled(ctx, spec, p, pf)
}

// tracedSampled rebuilds one round of the harness's sampled executor:
// an architectural scan checkpoints each unit's warmup start, then every
// unit is restored, functionally warmed and measured on its own core,
// one at a time (the workload's single region worker).
func tracedSampled(ctx context.Context, spec fvp.RunSpec, p *prog.Program, pf harness.PredFactory) (ooo.RunStats, vp.Meter, simTally, error) {
	var t simTally
	unitInsts := spec.SampleUnitInsts
	if unitInsts == 0 {
		unitInsts = sample.DefaultUnitInsts
	}
	plan, err := sample.New(sample.Config{MeasureInsts: spec.MeasureInsts, Units: spec.SampleUnits, UnitInsts: unitInsts, Seed: spec.SampleSeed})
	if err != nil {
		return ooo.RunStats{}, vp.Meter{}, t, err
	}
	warm := spec.SampleWarmupInsts
	if warm == 0 {
		warm = harness.DefaultSampleWarmupInsts
	}
	t0 := now()
	ex := prog.NewExec(p)
	cps := make([]*prog.Checkpoint, len(plan.Units))
	warms := make([]uint64, len(plan.Units))
	for i, u := range plan.Units {
		start := spec.WarmupInsts + u.Start
		warms[i] = min(warm, start)
		if at := start - warms[i]; at > ex.Seq() {
			ex.Run(at-ex.Seq(), nil)
		}
		cps[i] = ex.Checkpoint()
	}
	t.progNs, t.progInsts, t.ffInsts = now()-t0, int64(ex.Seq()), int64(ex.Seq())

	var st ooo.RunStats
	var mt vp.Meter
	for i, cp := range cps {
		ust, umt, ut, err := tracedSegment(ctx, newPred(pf), cp.Restore(), cp.Memory(), p.WarmRanges, warms[i], true, plan.Units[i].Len)
		if err != nil {
			return ooo.RunStats{}, vp.Meter{}, t, err
		}
		fieldwise(&st, ust, addU)
		fieldwise(&mt, umt, addU)
		t.add(ut)
	}
	t.points, t.units, t.regionDet, t.region = 1, len(plan.Units), st.Retired, spec.MeasureInsts
	return st, mt, t, nil
}

// harnessRun is the untraced reference: the harness entry point that
// fvp.RunContext wraps, returning the full RunStats and Meter.
func harnessRun(ctx context.Context, spec fvp.RunSpec) (harness.Result, error) {
	w, ok := workload.ByName(spec.Workload)
	if !ok {
		return harness.Result{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	opt := harness.DefaultOptions()
	opt.WarmupInsts, opt.MeasureInsts, opt.RegionWorkers = spec.WarmupInsts, spec.MeasureInsts, spec.RegionWorkers
	if spec.SampleUnits != 0 {
		opt.Sampling = harness.Sampling{Units: spec.SampleUnits, UnitInsts: spec.SampleUnitInsts, WarmupInsts: spec.SampleWarmupInsts, Seed: spec.SampleSeed}
	}
	return harness.RunOneCtx(ctx, w, ooo.Skylake(), predFactory(spec.Predictor), opt)
}

// statsJSON is the byte form the equivalence checks compare.
func statsJSON(st ooo.RunStats, mt vp.Meter) string {
	b, _ := json.Marshal(struct { // plain structs: cannot fail
		Stats ooo.RunStats
		Meter vp.Meter
	}{st, mt})
	return string(b)
}

// facadeFields projects RunStats and Meter onto the fvp.Metrics fields
// derived from them; m supplies the rest, so the result equals m exactly
// when the projection agrees.
func facadeFields(m fvp.Metrics, st ooo.RunStats, mt vp.Meter) fvp.Metrics {
	m.IPC, m.Coverage, m.Accuracy = st.IPC(), mt.Coverage(), mt.Accuracy()
	m.Cycles, m.Insts, m.Loads = st.Cycles, st.Retired, st.RetiredLoads
	m.VPFlushes, m.BranchMispredicts, m.Forwards = st.VPFlushes, st.BranchMispredicts, st.Forwards
	m.LoadsByLevel, m.CycleBreakdown = st.LoadsByLevel, st.Breakdown
	m.SkippedCycles, m.SkipEvents = st.SkippedCycles, st.SkipEvents
	return m
}

// untracedPasses is how many untraced passes the tracing overhead is
// measured against (median).
const untracedPasses = 3

// traceSpecs runs specs untraced (untracedPasses times, each repeat
// checked against the first) and then traced, checks the traced
// statistics against both the harness and the façade results (refs),
// and reports the simulator layers.
func traceSpecs(ctx context.Context, r *report, specs []fvp.RunSpec, refs []fvp.Metrics) error {
	first := make([]harness.Result, len(specs))
	var walls []float64
	for pass := 0; pass < untracedPasses; pass++ {
		t0 := time.Now()
		for i, s := range specs {
			res, err := harnessRun(ctx, s)
			if err != nil {
				return fmt.Errorf("untraced %s: %w", specLabel(s), err)
			}
			if pass == 0 {
				first[i] = res
			} else if statsJSON(res.Stats, res.Meter) != statsJSON(first[i].Stats, first[i].Meter) {
				r.fail("untraced repeat of %s differs from its first run", specLabel(s))
			}
		}
		walls = append(walls, time.Since(t0).Seconds())
	}

	var tally simTally
	t0 := time.Now()
	for i, s := range specs {
		st, mt, t, err := tracedPoint(ctx, s)
		if err != nil {
			return fmt.Errorf("traced %s: %w", specLabel(s), err)
		}
		tally.add(t)
		if statsJSON(st, mt) != statsJSON(first[i].Stats, first[i].Meter) {
			r.fail("traced RunStats/Meter of %s differ from the untraced harness run", specLabel(s))
		}
		if metricsJSON(facadeFields(refs[i], st, mt)) != metricsJSON(refs[i]) {
			r.fail("traced statistics of %s differ from untraced fvp.RunContext", specLabel(s))
		}
	}
	traced := time.Since(t0).Seconds()
	r.res.Attempted += int64(len(specs) * (untracedPasses + 1))
	r.logf("equivalence: %d traced points checked against the untraced harness and fvp.RunContext results", len(specs))
	r.logf("tracing overhead: traced pass %.3f s against untraced median %.3f s", traced, median(walls))
	r.set("trace.overhead", traced/median(walls), "ratio", untracedPasses)

	var ci float64
	var sampled int
	for _, m := range refs {
		if m.Sampling != nil {
			ci += m.Sampling.IPC.RelCI * 100
			sampled++
		}
	}
	if sampled > 0 {
		ci /= float64(sampled)
	}
	mst := tally.measured
	kinst := float64(mst.Retired) / 1000
	r.set("ooo.self_ns_per_inst", ratio(float64(tally.oooSelfNs), float64(tally.oooInsts)), "ns/inst", -1)
	r.set("ooo.skip_ratio", ratio(float64(mst.SkippedCycles), float64(mst.Cycles)), "ratio", -1)
	r.set("ooo.cpi", ratio(float64(mst.Cycles), float64(mst.Retired)), "cycles/inst", -1)
	r.set("ooo.flushes_per_kinst", ratio(float64(mst.VPFlushes+mst.MemOrderFlushes), kinst), "1/kinst", -1)
	r.set("core.ns_per_inst", ratio(float64(tally.predNs), float64(tally.predInsts)), "ns/inst", -1)
	r.set("core.lookups_per_inst", ratio(float64(tally.predLookups), float64(tally.predDet)), "ratio", -1)
	r.set("core.coverage", tally.predMeter.Coverage(), "ratio", -1)
	r.set("core.accuracy", tally.predMeter.Accuracy(), "ratio", -1)
	r.set("prog.ns_per_inst", ratio(float64(tally.progNs), float64(tally.progInsts)), "ns/inst", -1)
	r.set("harness.ff_share", ratio(float64(tally.ffInsts), float64(tally.ffInsts+tally.oooInsts)), "ratio", -1)
	r.set("sample.units_per_run", ratio(float64(tally.units), float64(tally.points)), "count", -1)
	r.set("sample.detail_share", ratio(float64(tally.regionDet), float64(tally.region)), "ratio", -1)
	r.set("sample.ci_pct", ci, "%", sampled)
	r.set("branch.mpki", ratio(float64(tally.brMisp), kinst), "1/kinst", -1)
	r.set("cache.l1d_mpki", ratio(float64(tally.l1dMiss), kinst), "1/kinst", -1)
	r.set("cache.llc_mpki", ratio(float64(tally.llcMiss), kinst), "1/kinst", -1)
	r.set("memsys.dram_loads_per_kinst", ratio(float64(tally.dramLoads), kinst), "1/kinst", -1)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reqTally accumulates the request-plane layers over a traced pass.
type reqTally struct {
	mu                          sync.Mutex
	appendLat, putLat, getLat   []float64
	queueWait, simulate, hopLat []float64
	enqueued                    map[string]time.Time // spec key -> durable enqueue
	ownerDur                    map[string]float64   // spec key -> owner handler time
	entries, forwarded          int
}

func (t *reqTally) observe(dst *[]float64, t0 time.Time) {
	d := time.Since(t0).Seconds()
	t.mu.Lock()
	*dst = append(*dst, d)
	t.mu.Unlock()
}

// timedJobs times every durable job-log append.
type timedJobs struct {
	store.JobStore
	t *reqTally
}

func (j timedJobs) noteEnqueued(recs ...store.JobRecord) {
	at := time.Now()
	j.t.mu.Lock()
	for _, rec := range recs {
		j.t.enqueued[rec.Key] = at
	}
	j.t.mu.Unlock()
}

func (j timedJobs) Enqueue(rec store.JobRecord) error {
	defer j.t.observe(&j.t.appendLat, time.Now())
	err := j.JobStore.Enqueue(rec)
	j.noteEnqueued(rec)
	return err
}

func (j timedJobs) AppendBatch(recs []store.JobRecord) error {
	defer j.t.observe(&j.t.appendLat, time.Now())
	err := j.JobStore.AppendBatch(recs)
	j.noteEnqueued(recs...)
	return err
}

func (j timedJobs) SetState(id uint64, state, errMsg string) error {
	defer j.t.observe(&j.t.appendLat, time.Now())
	return j.JobStore.SetState(id, state, errMsg)
}

// timedResults times result-cache reads and writes.
type timedResults struct {
	store.ResultStore
	t *reqTally
}

func (s timedResults) Get(key string) ([]byte, bool) {
	defer s.t.observe(&s.t.getLat, time.Now())
	return s.ResultStore.Get(key)
}

func (s timedResults) Put(key string, value []byte) error {
	defer s.t.observe(&s.t.putLat, time.Now())
	return s.ResultStore.Put(key, value)
}

// run is the service's simulation function: fvp.RunContext, timed, with
// the wait since the job's durable enqueue.
func (t *reqTally) run(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
	key := simd.SpecKey(spec)
	t0 := time.Now()
	t.mu.Lock()
	if at, ok := t.enqueued[key]; ok {
		t.queueWait = append(t.queueWait, t0.Sub(at).Seconds())
		delete(t.enqueued, key)
	}
	t.mu.Unlock()
	defer t.observe(&t.simulate, t0)
	return fvp.RunContext(ctx, spec)
}

// handler times each node's submit handling. A forwarded submit is timed
// at the owner; the entry node's time for the same spec, less the
// owner's, is the forward hop.
func (t *reqTally) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
			h.ServeHTTP(w, r)
			return
		}
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
		key := ""
		if reqs, _, err := simd.ParseRuns(raw); err == nil && len(reqs) > 0 {
			if flat, err := reqs[0].Flattened(); err == nil {
				key = simd.SpecKey(flat.RunSpec)
			}
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0).Seconds()
		t.mu.Lock()
		defer t.mu.Unlock()
		if r.Header.Get(cluster.ForwardedHeader) != "" {
			t.ownerDur[key] = d
			return
		}
		t.entries++
		if od, ok := t.ownerDur[key]; ok {
			t.forwarded++
			t.hopLat = append(t.hopLat, d-od)
			delete(t.ownerDur, key)
		}
	})
}

// requestPass runs a closed loop against a cluster with every
// request-plane wrapper attached and reports those layers. It returns
// how many requests the clients attempted.
func requestPass(ctx context.Context, r *report, clients int, next func(client, k int) (step, bool)) (int64, error) {
	t := &reqTally{enqueued: map[string]time.Time{}, ownerDur: map[string]float64{}}
	c, err := startCluster(dataRoot, clusterOpts{
		run: t.run,
		wrapStores: func(s store.Stores) store.Stores {
			s.Jobs = timedJobs{s.Jobs, t}
			s.Results = timedResults{s.Results, t}
			return s
		},
		wrapHandler: t.handler,
	})
	if err != nil {
		return 0, fmt.Errorf("start cluster: %w", err)
	}
	defer c.close()
	st := closedLoop(ctx, c, clients, next, r)
	r.res.Attempted += st.attempted
	r.res.Failed += st.failed
	done := len(st.hitLat) + len(st.missLat)
	r.logf("request-plane pass: %d requests, %d hits, %d misses, %d failed in %.3f s", st.attempted, len(st.hitLat), len(st.missLat), st.failed, st.wall)

	hits, misses := c.counts()
	t.mu.Lock()
	defer t.mu.Unlock()
	r.set("simd.queue_wait_ms_p50", ms(median(t.queueWait)), "ms", len(t.queueWait))
	r.set("simd.simulate_ms_p50", ms(median(t.simulate)), "ms", len(t.simulate))
	r.set("simd.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", -1)
	r.set("simd.hit_ms_p50", ms(median(st.hitLat)), "ms", len(st.hitLat))
	r.set("store.append_ms_p50", ms(median(t.appendLat)), "ms", len(t.appendLat))
	r.set("store.put_ms_p50", ms(median(t.putLat)), "ms", len(t.putLat))
	r.set("store.get_ms_p50", ms(median(t.getLat)), "ms", len(t.getLat))
	r.set("store.appends_per_req", ratio(float64(len(t.appendLat)), float64(done)), "ratio", -1)
	r.set("cluster.forward_share", ratio(float64(t.forwarded), float64(t.entries)), "ratio", -1)
	r.set("cluster.hop_ms_p50", ms(median(t.hopLat)), "ms", len(t.hopLat))
	return st.attempted, nil
}

// passLimit bounds the request pass, far above its expected length: a
// hung service cancels the pass's requests and fails the run.
const passLimit = 120 * time.Second

// traceSweep traces a sweep: its points on the rebuilt simulator path,
// then each point submitted to the cluster twice (a miss, then a hit).
func traceSweep(ctx context.Context, r *report, pts []fvp.RunSpec, refs []fvp.Metrics) error {
	if err := traceSpecs(ctx, r, pts, refs); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, passLimit)
	defer cancel()
	want := 2 * len(pts)
	sent, err := requestPass(ctx, r, 1, func(_, k int) (step, bool) {
		if k >= want {
			return step{}, false
		}
		return step{spec: pts[k/2], repeat: k%2 == 1}, true
	})
	if err != nil {
		return err
	}
	if sent < int64(want) {
		r.fail("request pass sent %d of its %d requests within %s", sent, want, passLimit)
	}
	return nil
}
