package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mdbgp/internal/obs"
)

// fetchTrace GETs a job's span tree and decodes it.
func fetchTrace(t *testing.T, ts *httptest.Server, id string) *obs.SpanView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: status %d: %s", id, resp.StatusCode, body)
	}
	var v obs.SpanView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	return &v
}

// TestTraceStructureDeterministicAcrossParallelism is the serving half of
// the acceptance criterion: the span tree a traced request produces — names,
// nesting, order and attributes, everything except timings — must be
// byte-identical whether the daemon solves with 1, 2 or 8 solver workers.
func TestTraceStructureDeterministicAcrossParallelism(t *testing.T) {
	_, body := testGraph(t, 3)
	structure := func(par int) string {
		_, ts := startServer(t, Config{Parallelism: par})
		code, m := submit(t, ts, "k=4&seed=5&iters=30&wait=true", body)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit: status %d (%v)", code, m)
		}
		id := m["job_id"].(string)
		pollDone(t, ts, id)
		return fetchTrace(t, ts, id).Structure()
	}
	ref := structure(1)
	for _, part := range []string{"request", "ingest", "cache-lookup", "queue-wait", "solve", "weights{cached=false}", "bisect", "gd{", "round{"} {
		if !strings.Contains(ref, part) {
			t.Fatalf("trace structure missing %q:\n%s", part, ref)
		}
	}
	for _, par := range []int{2, 8} {
		if got := structure(par); got != ref {
			t.Fatalf("trace structure differs between parallelism 1 and %d:\n%s\nvs\n%s", par, ref, got)
		}
	}
}

// TestJobConvergenceTelemetry: a finished GD job reports the solver's
// convergence summary in its JSON and links its trace.
func TestJobConvergenceTelemetry(t *testing.T) {
	_, body := testGraph(t, 7)
	_, ts := startServer(t, Config{})
	_, m := submit(t, ts, "k=4&seed=1&wait=true", body)
	id := m["job_id"].(string)
	v := pollDone(t, ts, id)
	conv, ok := v["convergence"].(map[string]any)
	if !ok {
		t.Fatalf("job JSON has no convergence object: %v", v)
	}
	if runs := conv["gd_runs"].(float64); runs < 3 {
		t.Fatalf("gd_runs = %v, want >= 3 for k=4 recursive bisection", runs)
	}
	if loc := conv["final_locality"].(float64); loc <= 0 || loc > 1 {
		t.Fatalf("final_locality = %v out of (0,1]", loc)
	}
	if _, ok := conv["iters_to_90"]; !ok {
		t.Fatal("iters_to_90 missing from convergence object")
	}
	if link, _ := v["trace"].(string); link != "/v1/jobs/"+id+"/trace" {
		t.Fatalf("trace link = %q", v["trace"])
	}
}

// TestTraceCacheHit: a submission served from the result cache still gets a
// trace — ingest and a hit-flagged cache lookup, no solve.
func TestTraceCacheHit(t *testing.T) {
	_, body := testGraph(t, 9)
	_, ts := startServer(t, Config{})
	_, m1 := submit(t, ts, "k=2&seed=4&wait=true", body)
	pollDone(t, ts, m1["job_id"].(string))
	code, m2 := submit(t, ts, "k=2&seed=4", body)
	if code != http.StatusOK || m2["cache"] != "hit" {
		t.Fatalf("second submit: status %d cache %v", code, m2["cache"])
	}
	tr := fetchTrace(t, ts, m2["job_id"].(string))
	st := tr.Structure()
	if !strings.Contains(st, "cache-lookup{hit=true}") {
		t.Fatalf("hit trace lacks hit-flagged lookup: %s", st)
	}
	if strings.Contains(st, "solve") {
		t.Fatalf("cache-hit trace contains a solve span: %s", st)
	}
}

// TestTraceDisabled: DisableTracing removes the trace link and the endpoint
// 404s, but jobs still solve.
func TestTraceDisabled(t *testing.T) {
	_, body := testGraph(t, 11)
	_, ts := startServer(t, Config{DisableTracing: true})
	_, m := submit(t, ts, "k=2&seed=2&wait=true", body)
	id := m["job_id"].(string)
	v := pollDone(t, ts, id)
	if _, ok := v["trace"]; ok {
		t.Fatal("trace link present with tracing disabled")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint status %d with tracing disabled", resp.StatusCode)
	}
}

// TestMetricsExpositionLints scrapes a live /metrics page — after real
// traffic across two engines, a cache hit and a failed lookup — and runs the
// zero-dep exposition linter over it: well-formed comments, sorted labels,
// no duplicate series, cumulative histogram buckets.
func TestMetricsExpositionLints(t *testing.T) {
	_, body := testGraph(t, 13)
	_, ts := startServer(t, Config{})
	_, m := submit(t, ts, "k=2&seed=1&wait=true", body)
	pollDone(t, ts, m["job_id"].(string))
	submit(t, ts, "k=2&seed=1", body) // cache hit
	_, m2 := submit(t, ts, "k=2&seed=1&engine=fennel&wait=true", body)
	pollDone(t, ts, m2["job_id"].(string))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	if errs := obs.LintExposition(string(page)); len(errs) > 0 {
		t.Fatalf("exposition lint errors: %v", errs)
	}
	for _, want := range []string{
		`mdbgpd_solve_duration_seconds_bucket{engine="fennel",le="+Inf"}`,
		`mdbgpd_solve_duration_seconds_bucket{engine="gd",le="+Inf"}`,
		"mdbgpd_queue_wait_seconds_count",
		"mdbgpd_ingest_duration_seconds_count",
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("exposition lacks %q", want)
		}
	}
}

// TestEngineSnapshotLabelOrdering: the per-engine snapshot returns its
// labels sorted regardless of observation order, and every map — including
// the histograms — is keyed consistently with that label list.
func TestEngineSnapshotLabelOrdering(t *testing.T) {
	var m metrics
	m.init()
	m.recordEngineSubmit("metis")
	m.recordEngineSubmit("blp")
	m.recordEngineSolve("gd", 5*time.Millisecond)
	m.recordEngineSolve("fennel", time.Millisecond)
	m.recordEngineSubmit("gd")
	labels, submitted, solves, _, hists := m.engineSnapshot()
	want := []string{"blp", "fennel", "gd", "metis"}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
	if submitted["gd"] != 1 || solves["gd"] != 1 || solves["fennel"] != 1 {
		t.Fatalf("snapshot counts wrong: submitted=%v solves=%v", submitted, solves)
	}
	for _, e := range []string{"gd", "fennel"} {
		h, ok := hists[e]
		if !ok || h.Count != 1 {
			t.Fatalf("histogram snapshot for %q: %+v (ok=%v)", e, h, ok)
		}
	}
}

// TestReadyzDrain: SetDraining flips only the readiness probe — liveness and
// the API keep serving, so a load balancer can bleed traffic before the
// process exits.
func TestReadyzDrain(t *testing.T) {
	s, ts := startServer(t, Config{})
	if code, _ := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	s.SetDraining(true)
	code, m := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Fatalf("readyz while draining: %d %v", code, m)
	}
	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz must stay 200 while draining, got %d", code)
	}
	_, body := testGraph(t, 17)
	if code, _ := submit(t, ts, "k=2&wait=true", body); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submissions must keep working while draining, got %d", code)
	}
	s.SetDraining(false)
	if code, _ := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after undrain: %d", code)
	}
	s.Close()
	code, m = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["status"] != "shutting down" {
		t.Fatalf("readyz after close: %d %v", code, m)
	}
}
