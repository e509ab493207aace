package harness

// Golden snapshots of region-parallel runs. Every case splits a fixed
// measured region into K slices and compares the stitched Result and each
// slice's RunStats/Meter against a checked-in snapshot, so any change to
// how regions are checkpointed, warmed, measured or stitched — not just to
// the modeled machine — fails here. SkippedCycles/SkipEvents are zeroed:
// they describe the simulator's loop, not the machine.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/harness -run TestRegionGolden -update

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/region_golden.json from the current harness")

const regionGoldenPath = "testdata/region_golden.json"

type regionGoldenSlice struct {
	Stats ooo.RunStats
	Meter vp.Meter
}

type regionGoldenRecord struct {
	Key     string
	IPC     float64
	Stats   ooo.RunStats
	Meter   vp.Meter
	FFInsts uint64
	Regions []regionGoldenSlice
}

func noSkip(st ooo.RunStats) ooo.RunStats {
	st.SkippedCycles, st.SkipEvents = 0, 0
	return st
}

// regionGoldenRuns simulates the matrix: {gcc, omnetpp, mcf, hmmer} ×
// {detailed, functional} × K∈{3,4} × {baseline, FVP}, over a measured
// length that does not divide by K so the last region's remainder is
// exercised.
func regionGoldenRuns() []regionGoldenRecord {
	var recs []regionGoldenRecord
	for _, name := range []string{"gcc", "omnetpp", "mcf", "hmmer"} {
		w, _ := workload.ByName(name)
		for _, mode := range []WarmupMode{WarmupDetailed, WarmupFunctional} {
			for _, k := range []int{3, 4} {
				for _, spec := range []Spec{SpecNone, SpecFVP} {
					var pf PredFactory
					if spec != SpecNone {
						pf = Factory(spec)
					}
					r := RunOne(w, ooo.Skylake(), pf, Options{
						WarmupInsts: 5_000, MeasureInsts: 40_001, WarmupMode: mode,
						Regions: k, RegionWorkers: 2, ReuseCores: true,
					})
					rec := regionGoldenRecord{
						Key: fmt.Sprintf("%s/%s/K%d/%s", name, mode, k, spec),
						IPC: r.IPC, Stats: noSkip(r.Stats), Meter: r.Meter, FFInsts: r.FFInsts,
					}
					for _, reg := range r.Regions {
						rec.Regions = append(rec.Regions, regionGoldenSlice{noSkip(reg.Stats), reg.Meter})
					}
					recs = append(recs, rec)
				}
			}
		}
	}
	return recs
}

func TestRegionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("region golden matrix skipped in -short mode")
	}
	got := regionGoldenRuns()
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(regionGoldenPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), regionGoldenPath)
		return
	}
	data, err := os.ReadFile(regionGoldenPath)
	if err != nil {
		t.Fatalf("read region golden: %v (run with -update to generate)", err)
	}
	var want []regionGoldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", regionGoldenPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d region golden records, want %d (run with -update)", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s diverged from golden:\n got: %+v\nwant: %+v", got[i].Key, got[i], want[i])
		}
	}
}
