package simd

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"fvp"
)

// TestUnversionedRoutesGone checks the pre-versioning paths are not
// served: the API lives under /v1 only (plus /healthz).
func TestUnversionedRoutesGone(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/runs", "/runs/j-00000001", "/workloads", "/predictors", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestMetricsExposition checks the canonical /v1/metrics output carries
// HELP/TYPE metadata for every metric family.
func TestMetricsExposition(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, out := postRuns(t, srv.URL+"/v1/runs?wait=1",
		`{"workload":"omnetpp","warmup_insts":1000,"measure_insts":2000}`)
	resp.Body.Close()
	if len(out.Jobs) != 1 || out.Jobs[0].State != StateDone {
		t.Fatalf("seed run failed: %+v", out.Jobs)
	}

	r, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	text := string(body)
	for _, family := range []string{
		"fvpd_jobs_queued", "fvpd_jobs_running", "fvpd_jobs_done_total",
		"fvpd_cache_hits_total", "fvpd_sim_cycles_total",
		"fvpd_http_requests_total", "fvpd_http_request_seconds_total",
	} {
		if !strings.Contains(text, "# HELP "+family+" ") {
			t.Errorf("exposition missing HELP for %s", family)
		}
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("exposition missing TYPE for %s", family)
		}
	}
	if !strings.Contains(text, `fvpd_http_requests_total{endpoint="POST /v1/runs"} `) {
		t.Errorf("exposition missing per-endpoint counter:\n%s", text)
	}
}

// TestProgressReporting checks a long-running job exposes progress through
// GET /v1/runs/{id}, that followers see their leader's progress, and that
// progress disappears once terminal.
func TestProgressReporting(t *testing.T) {
	svc, srv := newTestServer(t, Config{Workers: 1})

	// Long enough that we can observe it mid-flight; the measured region
	// dominates so the sampler (attached post-warmup) has data to report.
	spec := fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP, WarmupInsts: 1_000, MeasureInsts: 60_000_000}
	st, err := svc.Submit(RunRequest{RunSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := svc.Submit(RunRequest{RunSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Cached {
		t.Fatal("identical concurrent submit should dedup onto the leader")
	}

	getStatus := func(id string) JobStatus {
		r, err := http.Get(srv.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var js JobStatus
		if err := json.NewDecoder(r.Body).Decode(&js); err != nil {
			t.Fatal(err)
		}
		return js
	}

	waitFor(t, func() bool {
		js := getStatus(st.ID)
		return js.State == StateRunning && js.Progress != nil && js.Progress.RetiredInsts > 0
	})
	js := getStatus(st.ID)
	if js.Progress.TargetInsts != spec.MeasureInsts {
		t.Errorf("progress target = %d, want %d", js.Progress.TargetInsts, spec.MeasureInsts)
	}
	if js.Progress.Ratio <= 0 || js.Progress.Ratio > 1 {
		t.Errorf("progress ratio = %g, want (0,1]", js.Progress.Ratio)
	}
	if fj := getStatus(follower.ID); fj.State == StateRunning && fj.Progress == nil {
		t.Error("running follower should report its leader's progress")
	}

	if !svc.Cancel(st.ID) || !svc.Cancel(follower.ID) {
		t.Fatal("cancel failed")
	}
	waitFor(t, func() bool { return svc.Snapshot().JobsRunning == 0 })
	if js := getStatus(st.ID); js.Progress != nil {
		t.Error("terminal job must not report progress")
	}
}

// TestSubmitRejectsOverBudgetSpec checks the typed budget-cap validation
// surfaces as HTTP 400.
func TestSubmitRejectsOverBudgetSpec(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, _ := postRuns(t, srv.URL+"/v1/runs",
		`{"workload":"omnetpp","measure_insts":2000000000}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-budget submit: HTTP %d, want 400", resp.StatusCode)
	}
}
