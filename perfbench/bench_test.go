package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fvp"
	"fvp/internal/simd"
)

// declared reads the metric lists of BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestEveryMetricPrints runs every workload, untraced and traced, at a
// tiny length and checks that exactly the declared metrics print, each
// with its declared unit, and that every check passes.
func TestEveryMetricPrints(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			var out bytes.Buffer
			res, err := run(context.Background(), &out, config{workload: wl, seed: 3, seconds: 0.5, trace: trace, small: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl, trace, err, out.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", wl, trace, name)
				}
			}
			if !strings.Contains(out.String(), "sim_digest") {
				t.Errorf("%s trace=%v: no sim_digest line", wl, trace)
			}
		}
	}
}

// TestRefusedRequestCountsAsFailure fills a one-worker, one-slot queue
// with slow simulations and checks that the requests the service refuses
// (queue full, 503) are counted as failed attempts, not dropped.
func TestRefusedRequestCountsAsFailure(t *testing.T) {
	slow := func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		select {
		case <-time.After(300 * time.Millisecond):
		case <-ctx.Done():
		}
		return fvp.Metrics{IPC: 1, Cycles: 1, Insts: 1}, nil
	}
	c, err := startCluster(t.TempDir(), clusterOpts{workers: 1, queue: 1, run: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	// Four distinct specs owned by node a, sent at once by four clients:
	// one runs, one queues, the rest find the queue full.
	const clients = 4
	var specs []fvp.RunSpec
	for v := uint64(10_000); len(specs) < clients; v++ {
		s := fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredNone, WarmupInsts: 1000, MeasureInsts: v}
		if c.nodes[0].Owner(simd.SpecKey(s)) == "a" {
			specs = append(specs, s)
		}
	}
	var sent atomic.Int64
	r := newReport(&bytes.Buffer{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st := closedLoop(ctx, c, clients, func(client, k int) (step, bool) {
		if k > 0 {
			return step{}, false
		}
		sent.Add(1)
		return step{spec: specs[client]}, true
	}, r)

	if st.attempted != clients || sent.Load() != clients {
		t.Fatalf("attempted %d, sent %d, want %d", st.attempted, sent.Load(), clients)
	}
	if st.failed < 1 {
		t.Fatalf("no request counted as failed; %d misses completed", len(st.missLat))
	}
	if got := st.failed + int64(len(st.missLat)); got != clients {
		t.Errorf("failed %d + completed %d = %d, want %d", st.failed, len(st.missLat), got, clients)
	}
	if !r.res.Correct {
		t.Errorf("refusals must count as failures, not as failed checks")
	}
}
