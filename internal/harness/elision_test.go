package harness

import (
	"context"
	"reflect"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/telemetry"
	"fvp/internal/workload"
)

// stripSkips zeroes the elision meters (SkippedCycles/SkipEvents) and the
// wall-clock fields of a Result and of every unit inside it, leaving only
// what describes the simulated machine.
func stripSkips(r Result) Result {
	r = stripWallClock(r)
	r.Stats = noSkip(r.Stats)
	for i := range r.Regions {
		r.Regions[i].Stats = noSkip(r.Regions[i].Stats)
	}
	if r.Sampling != nil {
		for i := range r.Sampling.Units {
			r.Sampling.Units[i].Stats = noSkip(r.Sampling.Units[i].Stats)
		}
	}
	return r
}

// Every RunOneCtx path must produce the same Result with idle-cycle elision
// on and off: elision changes how fast the cycle loop runs, never what it
// simulates. The detailed arm also streams interval telemetry, which must
// match sample for sample.
func TestRunOneElisionEquivalence(t *testing.T) {
	w, _ := workload.ByName("mcf-17")
	base := Options{WarmupInsts: 5_000, MeasureInsts: 30_000, RegionWorkers: 2, ReuseCores: true}
	modes := map[string]func(*Options){
		"detailed":   func(*Options) {},
		"functional": func(o *Options) { o.WarmupMode = WarmupFunctional },
		"regions":    func(o *Options) { o.Regions = 3 },
		"sampled": func(o *Options) {
			o.Sampling = Sampling{Units: 4, UnitInsts: 2_000, WarmupInsts: 4_000}
		},
	}
	for name, set := range modes {
		t.Run(name, func(t *testing.T) {
			var results [2]Result
			var samples [2][]telemetry.Sample
			for i, tick := range []bool{false, true} {
				cfg := ooo.Skylake()
				cfg.DisableIdleElision = tick
				opt := base
				set(&opt)
				if name == "detailed" {
					opt.OnSample = func(s telemetry.Sample) {
						s.SkippedCycles = 0
						samples[i] = append(samples[i], s)
					}
					opt.SampleInterval = 2_000
				}
				r, err := RunOneCtx(context.Background(), w, cfg, Factory(SpecFVP), opt)
				if err != nil {
					t.Fatal(err)
				}
				results[i] = r
			}
			if results[0].Stats.SkippedCycles == 0 {
				t.Fatal("elided run skipped no cycles on mcf-17; the comparison would be vacuous")
			}
			if results[1].Stats.SkippedCycles != 0 {
				t.Fatalf("ticking run skipped %d cycles", results[1].Stats.SkippedCycles)
			}
			if got, want := stripSkips(results[1]), stripSkips(results[0]); !reflect.DeepEqual(got, want) {
				t.Errorf("ticking Result diverged from elided:\n got: %+v\nwant: %+v", got, want)
			}
			if name == "detailed" && len(samples[0]) == 0 {
				t.Error("no interval samples streamed")
			}
			if !reflect.DeepEqual(samples[1], samples[0]) {
				t.Errorf("ticking interval samples diverged from elided (%d vs %d samples)", len(samples[1]), len(samples[0]))
			}
		})
	}
}
