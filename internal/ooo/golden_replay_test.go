package ooo_test

// Layout-equivalence matrix for the packed-trace replay path: every golden
// case is re-run with the instruction stream recorded once into the binary
// trace format (internal/trace) and replayed from memory, then compared
// against the SAME testdata/golden_stats.json snapshot the generator-driven
// matrix pins. Passing means two things at once: the trace codec round-trips
// every field the timing model reads, and the SoA core is source-agnostic —
// bit-identical stats whether micro-ops arrive from the functional generator
// or from a MemReader, with idle-cycle elision on or off. This is the
// guarantee that lets fvpbench and the cycle-loop benchmarks use replay as
// their default input.

import (
	"reflect"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/trace"
	"fvp/internal/workload"
)

// replayGoldenSlack is how far past the retirement budget each recording
// extends: fetch runs ahead of retirement by at most the ROB plus the fetch
// buffer (a few hundred micro-ops), so the replayed source must never run
// dry before the run's goldenInsts-th retirement.
const replayGoldenSlack = 8_192

func TestGoldenStatsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay matrix skipped in -short mode")
	}
	want := loadGolden(t)
	for _, name := range goldenWorkloads {
		wl, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown golden workload %q", name)
		}
		const recInsts = goldenInsts + replayGoldenSlack
		data, n, err := trace.Record(prog.NewExec(wl.Build()), recInsts)
		if err != nil || n < recInsts {
			t.Fatalf("record %s: got %d/%d insts, err %v", name, n, recInsts, err)
		}
		for _, cfg := range goldenCores() {
			for _, pred := range goldenPredictors {
				wl, cfg, pred, data := wl, cfg, pred, data
				key := goldenKey(wl.Name, cfg.Name, pred)
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					exp, ok := want[key]
					if !ok {
						t.Fatalf("no golden record for %s (run with -update)", key)
					}
					for _, arm := range goldenArms {
						src, err := trace.NewMemReader(data, false)
						if err != nil {
							t.Fatal(err)
						}
						p := wl.Build()
						cfg := cfg
						cfg.DisableIdleElision = arm.tick
						c := ooo.New(cfg, goldenPredictor(pred), src, p.BuildMemory())
						c.WarmCaches(p.WarmRanges)
						st := c.Run(goldenInsts)
						st.SkippedCycles = 0
						st.SkipEvents = 0
						if !reflect.DeepEqual(st, exp.Stats) {
							t.Errorf("%s: replayed RunStats diverged from golden:\n got: %+v\nwant: %+v", arm.name, st, exp.Stats)
						}
						if c.Meter != exp.Meter {
							t.Errorf("%s: replayed vp.Meter diverged from golden:\n got: %+v\nwant: %+v", arm.name, c.Meter, exp.Meter)
						}
					}
				})
			}
		}
	}
}
