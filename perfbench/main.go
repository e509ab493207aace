// Command perfbench is the repository's benchmark. One invocation runs one
// workload, checks its outputs, and prints every metric by name with its
// unit; the last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"sim_mips": {"value": 1.9, "unit": "Minst/s"}, ...}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload detail-sweep|sampled-sweep --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 instead runs the workload's specs through timing wrappers
// around each module's public calls and prints the per-layer metrics. The
// seed picks the simulated applications and the sampling phase; the
// simulator only ever sees the generated specs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	// seconds bounds the timed phase of an untraced run.
	seconds float64
	trace   bool
	// small shrinks every spec and pool to a few thousand instructions;
	// the smoke test uses it to exercise every path in seconds.
	small bool
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON summary printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and its human-readable log lines.
type report struct {
	w   io.Writer
	res result
}

func newReport(w io.Writer) *report {
	return &report{w: w, res: result{Correct: true, Metrics: map[string]metric{}}}
}

// logf prints one "# "-prefixed log line.
func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.w, "# "+format+"\n", args...)
}

// set records a metric and logs it with its sample count (n < 0: not a
// sampled timing).
func (r *report) set(name string, v float64, unit string, n int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	if n >= 0 {
		r.logf("%-28s %14.6g %-8s (n=%d)", name, v, unit, n)
	} else {
		r.logf("%-28s %14.6g %s", name, v, unit)
	}
}

// fail marks the run incorrect and logs why.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.logf("CHECK FAILED: "+format, args...)
}

// workloads maps each benchmark workload to the function that runs it
// and the one-line reason it is in the benchmark.
var workloads = map[string]struct {
	run func(ctx context.Context, cfg config, r *report) error
	why string
}{
	"detail-sweep": {runDetailSweep,
		"baseline+FVP full-detail pairs, the shape of cmd/experiments -all: the ooo cycle loop, core and memsys do the work"},
	"sampled-sweep": {runSampledSweep,
		"SMARTS-sampled estimates of 2M-instruction regions: prog's functional executor and functional warming do the work; the detailed loop is a few percent"},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and returns its summary.
func run(ctx context.Context, out io.Writer, cfg config) (result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	r := newReport(out)
	r.logf("workload %s, seed %d, seconds %g, trace %v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	r.logf("why: %s", wl.why)
	if err := wl.run(ctx, cfg, r); err != nil {
		return result{}, err
	}
	if r.res.Attempted < 1 {
		return result{}, fmt.Errorf("%s attempted no operations", cfg.workload)
	}
	return r.res, nil
}

// setLiveHeap records the heap the workload still holds at the end of its
// timed phase: bytes reachable after forced collections (two, so pooled
// cores that survive one collection in sync.Pool's victim cache are not
// counted). Peak RSS follows the collector's timing instead and moved by
// half between runs of the same inputs.
func (r *report) setLiveHeap() {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	r.set("live_heap_mb", float64(st.HeapAlloc)/(1<<20), "MB", -1)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the applications and sampling phase")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end ones")
	flag.Parse()
	cfg.trace = trace != 0

	res, err := run(context.Background(), os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// --- small statistics helpers ---

// median returns the median of xs (xs is not modified; 0 when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stretch is one pass of a timed phase: its wall time and the
// instructions simulated and measured in it.
type stretch struct {
	secs, sims, regions float64
}

// reportRates sets the throughput metrics, each the median of its
// per-pass rate: a few seconds of interference from other tenants of the
// host move one pass, not the median.
func reportRates(r *report, parts []stretch) {
	rate := func(f func(stretch) float64) float64 {
		xs := make([]float64, len(parts))
		for i, p := range parts {
			xs[i] = f(p) / p.secs
		}
		return median(xs)
	}
	r.set("sim_mips", rate(func(p stretch) float64 { return p.sims })/1e6, "Minst/s", len(parts))
	r.set("region_mips", rate(func(p stretch) float64 { return p.regions })/1e6, "Minst/s", len(parts))
}

// timeMedian runs f n times and returns the median wall time of a run in
// seconds. Each run starts after a collection, so garbage from the
// previous run is not collected inside the next one's timing.
func timeMedian(n int, f func() error) (float64, error) {
	ts := make([]float64, n)
	for i := range ts {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts), nil
}

// ms converts seconds to milliseconds.
func ms(s float64) float64 { return s * 1e3 }
