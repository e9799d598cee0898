package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mdbgp"
)

// testGraph returns a small community-structured graph that solves in
// milliseconds, plus its canonical edge-list bytes.
func testGraph(t *testing.T, seed int64) (*mdbgp.Graph, []byte) {
	t.Helper()
	g, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{
		N: 400, Communities: 4, AvgDegree: 8, InFraction: 0.85, Seed: seed,
	})
	var buf bytes.Buffer
	if err := mdbgp.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// submit POSTs body to /v1/partition?query and decodes the JSON response.
func submit(t *testing.T, ts *httptest.Server, query string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/partition?"+query, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp.StatusCode, m
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode, m
}

// pollDone polls the job until it reaches a terminal state.
func pollDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, m := getJSON(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d (%v)", id, code, m)
		}
		switch m["status"] {
		case "done", "failed":
			return m
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return nil
}

// assignment fetches the byte-exact "vertex part" body of a finished job.
func assignment(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/assignment")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assignment %s: status %d: %s", id, resp.StatusCode, body)
	}
	return body
}

func metric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parsing metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxVertexID != 1<<24 {
		t.Fatalf("default MaxVertexID = %d, want 16M — unbounded ids let a 13-byte body allocate gigabytes", c.MaxVertexID)
	}
	if got := (Config{MaxVertexID: -1}).withDefaults().MaxVertexID; got != 0 {
		t.Fatalf("negative MaxVertexID should pass 0 (representation limit) to the reader, got %d", got)
	}
	if got := (Config{MaxVertexID: 500}).withDefaults().MaxVertexID; got != 500 {
		t.Fatalf("explicit MaxVertexID overridden: %d", got)
	}
}

func TestSubmitPollResult(t *testing.T) {
	g, body := testGraph(t, 3)
	_, ts := startServer(t, Config{Workers: 2})

	code, m := submit(t, ts, "k=4&seed=42&iters=30", body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: status %d (%v)", code, m)
	}
	if m["cache"] != "miss" {
		t.Fatalf("first submit should be a cache miss, got %v", m["cache"])
	}
	id, _ := m["job_id"].(string)
	if id == "" {
		t.Fatalf("submit response lacks job_id: %v", m)
	}

	final := pollDone(t, ts, id)
	if final["status"] != "done" {
		t.Fatalf("job failed: %v", final)
	}
	res, _ := final["result"].(map[string]any)
	if res == nil {
		t.Fatalf("done job has no result: %v", final)
	}
	if res["k"].(float64) != 4 {
		t.Fatalf("result k = %v, want 4", res["k"])
	}
	if loc := res["edge_locality"].(float64); loc <= 0 || loc > 1 {
		t.Fatalf("edge_locality %v out of range", loc)
	}
	gm, _ := final["graph"].(map[string]any)
	if int(gm["n"].(float64)) != g.N() || int64(gm["m"].(float64)) != g.M() {
		t.Fatalf("graph size %v, want n=%d m=%d", gm, g.N(), g.M())
	}

	// The assignment endpoint serves one "vertex part" line per vertex.
	lines := bytes.Split(bytes.TrimSuffix(assignment(t, ts, id), []byte("\n")), []byte("\n"))
	if len(lines) != g.N() {
		t.Fatalf("assignment has %d lines, want %d", len(lines), g.N())
	}

	// Liveness and accounting.
	if code, h := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, h)
	}
	if v := metric(t, ts, "mdbgpd_jobs_completed_total"); v != 1 {
		t.Fatalf("jobs_completed_total = %v, want 1", v)
	}
	if v := metric(t, ts, "mdbgpd_jobs_failed_total"); v != 0 {
		t.Fatalf("jobs_failed_total = %v, want 0", v)
	}
}

func TestCacheHitIsByteIdentical(t *testing.T) {
	_, body := testGraph(t, 5)
	_, ts := startServer(t, Config{Workers: 2})

	// First request: miss, solved.
	code, m := submit(t, ts, "k=2&seed=7&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("wait=true submit: status %d (%v)", code, m)
	}
	if m["cache"] != "miss" || m["status"] != "done" {
		t.Fatalf("first submit: %v", m)
	}
	first := assignment(t, ts, m["job_id"].(string))

	// Identical request: cache hit, byte-identical assignment, no re-solve.
	code, m2 := submit(t, ts, "k=2&seed=7&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("second submit: status %d", code)
	}
	if m2["cache"] != "hit" {
		t.Fatalf("identical request should hit the cache, got %v", m2["cache"])
	}
	if m2["key"] != m["key"] {
		t.Fatalf("content keys differ for identical requests: %v vs %v", m2["key"], m["key"])
	}
	second := assignment(t, ts, m2["job_id"].(string))
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit returned a different assignment")
	}
	if hits := metric(t, ts, "mdbgpd_cache_hits_total"); hits != 1 {
		t.Fatalf("cache_hits_total = %v, want 1", hits)
	}
	if miss := metric(t, ts, "mdbgpd_cache_misses_total"); miss != 1 {
		t.Fatalf("cache_misses_total = %v, want 1", miss)
	}
	if solved := metric(t, ts, "mdbgpd_jobs_completed_total"); solved != 2 {
		// Both jobs complete (one solved, one materialized from cache).
		t.Fatalf("jobs_completed_total = %v, want 2", solved)
	}
}

// TestNearDuplicateHitsCache proves the content addressing: a shuffled edge
// list with duplicate edges and self loops, submitted with every default
// spelled out explicitly, is the same request.
func TestNearDuplicateHitsCache(t *testing.T) {
	g, body := testGraph(t, 11)
	_, ts := startServer(t, Config{Workers: 2})

	code, m := submit(t, ts, "seed=9&wait=true", body)
	if code != http.StatusOK || m["status"] != "done" {
		t.Fatalf("first submit: %d %v", code, m)
	}

	// Re-serialize the same graph in a different order with noise.
	var edges [][2]int
	g.EachEdge(func(u, v int) bool { edges = append(edges, [2]int{u, v}); return true })
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var buf bytes.Buffer
	buf.WriteString("% same graph, different bytes\n")
	for i, e := range edges {
		fmt.Fprintf(&buf, "%d %d\n", e[1], e[0]) // reversed endpoints
		if i%37 == 0 {
			fmt.Fprintf(&buf, "%d %d\n", e[0], e[1]) // duplicate
			fmt.Fprintf(&buf, "%d %d\n", e[0], e[0]) // self loop
		}
	}

	// Explicit defaults: k=2, eps=0.05, iters=100, step=2, default
	// projection — all of which the first request left implicit — plus an
	// irrelevant parallelism difference on the server side.
	code, m2 := submit(t, ts, "k=2&eps=0.05&iters=100&step=2&projection=alternating-oneshot&dims=vertices,edges&seed=9&wait=true", buf.Bytes())
	if code != http.StatusOK {
		t.Fatalf("near-duplicate submit: status %d (%v)", code, m2)
	}
	if m2["cache"] != "hit" {
		t.Fatalf("near-duplicate request should hit the cache, got cache=%v (key %v vs %v)", m2["cache"], m2["key"], m["key"])
	}
	if !bytes.Equal(assignment(t, ts, m["job_id"].(string)), assignment(t, ts, m2["job_id"].(string))) {
		t.Fatal("near-duplicate hit returned a different assignment")
	}
}

// TestDeterminismAcrossWorkerCounts is the API-level golden determinism
// check: a fixed seed must return byte-identical assignments from servers
// running 1, 2 and 8 workers (both queue workers and solver parallelism).
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	_, body := testGraph(t, 21)
	var golden []byte
	for _, w := range []int{1, 2, 8} {
		_, ts := startServer(t, Config{Workers: w, Parallelism: w})
		code, m := submit(t, ts, "k=4&seed=42&iters=40&wait=true", body)
		if code != http.StatusOK || m["status"] != "done" {
			t.Fatalf("workers=%d: submit %d %v", w, code, m)
		}
		a := assignment(t, ts, m["job_id"].(string))
		if golden == nil {
			golden = a
		} else if !bytes.Equal(golden, a) {
			t.Fatalf("workers=%d produced a different assignment than workers=1", w)
		}
	}
}

// blockingServer starts a server whose solver blocks until release is
// closed, signalling each entry on entered.
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan string, chan struct{}) {
	t.Helper()
	entered := make(chan string, 16)
	release := make(chan struct{})
	s := newServer(cfg)
	s.solve = func(g *mdbgp.Graph, opts mdbgp.Options) (*mdbgp.Result, error) {
		entered <- fmt.Sprintf("n=%d", g.N())
		<-release
		return &mdbgp.Result{
			Assignment:   &mdbgp.Assignment{Parts: make([]int32, g.N()), K: 1},
			EdgeLocality: 1,
		}, nil
	}
	s.startWorkers()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		ts.Close()
		s.Close()
	})
	return s, ts, entered, release
}

// TestQueueSaturationBackpressure drives the bounded queue into saturation
// deterministically: one worker blocked solving, one job queued, so the
// third distinct submission must be rejected with 429.
func TestQueueSaturationBackpressure(t *testing.T) {
	_, body := testGraph(t, 31)
	_, ts, entered, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})

	code, mA := submit(t, ts, "seed=1", body)
	if code != http.StatusAccepted {
		t.Fatalf("job A: status %d", code)
	}
	<-entered // A is now occupying the only worker

	code, mB := submit(t, ts, "seed=2", body)
	if code != http.StatusAccepted {
		t.Fatalf("job B: status %d", code)
	}

	resp, err := http.Post(ts.URL+"/v1/partition?seed=3", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rejBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429 (%s)", resp.StatusCode, rejBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response lacks Retry-After")
	}
	if v := metric(t, ts, "mdbgpd_jobs_rejected_total"); v != 1 {
		t.Fatalf("jobs_rejected_total = %v, want 1", v)
	}

	// Rejected work was not registered or counted anywhere: a 429 is not a
	// submission, a cache miss, or a queue entry.
	if depth := metric(t, ts, "mdbgpd_queue_depth"); depth != 1 {
		t.Fatalf("queue_depth = %v, want 1", depth)
	}
	if v := metric(t, ts, "mdbgpd_jobs_submitted_total"); v != 2 {
		t.Fatalf("jobs_submitted_total = %v, want 2", v)
	}
	if v := metric(t, ts, "mdbgpd_cache_misses_total"); v != 2 {
		t.Fatalf("cache_misses_total = %v, want 2", v)
	}

	close(release)
	for _, m := range []map[string]any{mA, mB} {
		if final := pollDone(t, ts, m["job_id"].(string)); final["status"] != "done" {
			t.Fatalf("job %v did not complete after release: %v", m["job_id"], final)
		}
	}

	// Capacity is available again.
	code, mD := submit(t, ts, "seed=4", body)
	if code != http.StatusAccepted {
		t.Fatalf("post-drain submit: status %d", code)
	}
	pollDone(t, ts, mD["job_id"].(string))
}

// TestInflightCoalescing: an identical request arriving while the first is
// still solving attaches to the same job instead of re-solving.
func TestInflightCoalescing(t *testing.T) {
	_, body := testGraph(t, 41)
	_, ts, entered, release := blockingServer(t, Config{Workers: 1, QueueDepth: 4})

	code, mA := submit(t, ts, "seed=5", body)
	if code != http.StatusAccepted {
		t.Fatalf("job A: status %d", code)
	}
	<-entered

	code, mB := submit(t, ts, "seed=5", body)
	if code != http.StatusAccepted {
		t.Fatalf("coalesced submit: status %d", code)
	}
	if mA["job_id"] != mB["job_id"] {
		t.Fatalf("identical in-flight requests got distinct jobs: %v vs %v", mA["job_id"], mB["job_id"])
	}
	if v := metric(t, ts, "mdbgpd_jobs_coalesced_total"); v != 1 {
		t.Fatalf("jobs_coalesced_total = %v, want 1", v)
	}

	// A coalesced ?wait=true submission honors the wait: it blocks until
	// the shared job finishes rather than returning the async envelope.
	waited := make(chan map[string]any, 1)
	go func() {
		_, m := submit(t, ts, "seed=5&wait=true", body)
		waited <- m
	}()
	select {
	case m := <-waited:
		t.Fatalf("coalesced wait=true returned before the solve finished: %v", m)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case m := <-waited:
		if m["status"] != "done" || m["job_id"] != mA["job_id"] {
			t.Fatalf("coalesced wait response: %v", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coalesced wait=true never returned after release")
	}
	if final := pollDone(t, ts, mA["job_id"].(string)); final["status"] != "done" {
		t.Fatalf("coalesced job: %v", final)
	}
	// Only one solve happened for the two submissions.
	if v := metric(t, ts, "mdbgpd_jobs_completed_total"); v != 1 {
		t.Fatalf("jobs_completed_total = %v, want 1", v)
	}
}

func TestErrorPaths(t *testing.T) {
	_, body := testGraph(t, 51)
	_, ts := startServer(t, Config{Workers: 1, MaxBodyBytes: 1 << 20, MaxVertexID: 1 << 20})

	post := func(query string, body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/partition?"+query, "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		name  string
		query string
		body  []byte
		want  int
	}{
		{"unknown param", "frobnicate=1", body, http.StatusBadRequest},
		{"bad k", "k=x", body, http.StatusBadRequest},
		{"negative k", "k=-2", body, http.StatusBadRequest},
		{"bad eps", "eps=1.5", body, http.StatusBadRequest},
		{"zero eps", "eps=0", body, http.StatusBadRequest}, // would silently become the 5% default
		{"bad seed", "seed=abc", body, http.StatusBadRequest},
		{"bad projection", "projection=nope", body, http.StatusBadRequest},
		{"nested projection", "projection=nested", body, http.StatusBadRequest}, // seconds to minutes per solve at 2–3 dims
		{"iters above bound", "iters=10001", body, http.StatusBadRequest},       // solve time grows linearly with iters
		{"negative iters", "iters=-1", body, http.StatusBadRequest},
		{"refineiters above bound", "engine=multilevel&refineiters=10001", body, http.StatusBadRequest},
		{"negative refineiters", "engine=multilevel&refineiters=-1", body, http.StatusBadRequest},
		{"removed reorder", "reorder=degree", body, http.StatusBadRequest},
		{"removed incgrad", "incgrad=true", body, http.StatusBadRequest},
		{"removed resync", "resync=4", body, http.StatusBadRequest},
		{"removed kernel32", "kernel32=true", body, http.StatusBadRequest},
		{"removed multilevel alias", "multilevel=true", body, http.StatusBadRequest},
		{"bad dims", "dims=vertices,bogus", body, http.StatusBadRequest},
		{"malformed body", "", []byte("0 1\nnot an edge\n"), http.StatusBadRequest},
		{"empty body", "", nil, http.StatusBadRequest},
		{"comments only", "", []byte("# nothing\n"), http.StatusBadRequest},
		{"huge vertex id", "", []byte("0 2000000\n"), http.StatusBadRequest},
		{"oversized body", "", bytes.Repeat([]byte("1 2\n"), 1<<19), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if got := post(tc.query, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}

	// The nested refusal says why, not just that.
	if _, m := submit(t, ts, "projection=nested", body); !strings.Contains(fmt.Sprint(m["error"]), "balance dimensions") {
		t.Fatalf("nested refusal does not explain itself: %v", m["error"])
	}
	// The iteration-budget refusal names the bound; the bound itself parses.
	if _, m := submit(t, ts, "iters=10001", body); !strings.Contains(fmt.Sprint(m["error"]), "10000") {
		t.Fatalf("iters refusal does not name the bound: %v", m["error"])
	}
	if _, err := parseSubmit(httptest.NewRequest(http.MethodPost, "/v1/partition?iters=10000&engine=multilevel&refineiters=10000", nil)); err != nil {
		t.Fatalf("budgets at the bound refused: %v", err)
	}
	if _, m := submit(t, ts, "reorder=degree", body); !strings.Contains(fmt.Sprint(m["error"]), "unknown query parameter") {
		t.Fatalf("removed parameter not refused as unknown: %v", m["error"])
	}

	// No submissions above were accepted.
	if v := metric(t, ts, "mdbgpd_jobs_submitted_total"); v != 0 {
		t.Fatalf("jobs_submitted_total = %v, want 0", v)
	}

	// Job lookups.
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/assignment")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown assignment: status %d, want 404", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/partition")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/partition: status %d, want 405", resp.StatusCode)
	}
}

// TestAssignmentBeforeDone: polling the assignment of an unfinished job is
// a 409, not a hang or a partial body.
func TestAssignmentBeforeDone(t *testing.T) {
	_, body := testGraph(t, 61)
	_, ts, entered, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})

	_, m := submit(t, ts, "seed=6", body)
	<-entered
	resp, err := http.Get(ts.URL + "/v1/jobs/" + m["job_id"].(string) + "/assignment")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("assignment of running job: status %d, want 409", resp.StatusCode)
	}
	close(release)
	pollDone(t, ts, m["job_id"].(string))
}

func TestRetentionEviction(t *testing.T) {
	_, body := testGraph(t, 71)
	_, ts := startServer(t, Config{Workers: 1, RetainJobs: 2})

	var ids []string
	for seed := 0; seed < 3; seed++ {
		code, m := submit(t, ts, fmt.Sprintf("seed=%d&iters=10&wait=true", seed+100), body)
		if code != http.StatusOK {
			t.Fatalf("submit %d: status %d", seed, code)
		}
		ids = append(ids, m["job_id"].(string))
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("oldest job should have been evicted from the history, got %d", code)
	}
	for _, id := range ids[1:] {
		if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+id); code != http.StatusOK {
			t.Fatalf("retained job %s: status %d", id, code)
		}
	}
}

func TestShutdown(t *testing.T) {
	_, body := testGraph(t, 81)
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, m := submit(t, ts, "seed=8&iters=10&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("pre-shutdown submit: %d", code)
	}
	s.Close()
	s.Close() // idempotent

	if code, _ := submit(t, ts, "seed=9", body); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: status %d, want 503", code)
	}
	if code, h := getJSON(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable || h["status"] == "ok" {
		t.Fatalf("post-shutdown healthz: %d %v", code, h)
	}
	// Completed jobs remain pollable after shutdown.
	if final := pollDone(t, ts, m["job_id"].(string)); final["status"] != "done" {
		t.Fatalf("job lost at shutdown: %v", final)
	}
}

// TestConcurrentClients hammers one server from many goroutines mixing
// repeat and distinct traffic with concurrent metric scrapes — the -race
// companion to the determinism tests. Every response for the same content
// key must be byte-identical.
func TestConcurrentClients(t *testing.T) {
	_, body := testGraph(t, 91)
	_, ts := startServer(t, Config{Workers: 4, QueueDepth: 256})

	const clients, perClient, distinct = 8, 6, 3
	var mu sync.Mutex
	results := make(map[int64][][]byte) // seed -> assignment bodies

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seed := int64(200 + (c*perClient+i)%distinct)
				code, m := submit(t, ts, fmt.Sprintf("k=4&iters=20&seed=%d", seed), body)
				if code != http.StatusAccepted && code != http.StatusOK {
					t.Errorf("client %d: submit status %d", c, code)
					return
				}
				final := pollDone(t, ts, m["job_id"].(string))
				if final["status"] != "done" {
					t.Errorf("client %d: job %v failed: %v", c, m["job_id"], final)
					return
				}
				a := assignment(t, ts, m["job_id"].(string))
				mu.Lock()
				results[seed] = append(results[seed], a)
				mu.Unlock()
				// Interleave scrapes to race the counters against traffic.
				metric(t, ts, "mdbgpd_jobs_submitted_total")
			}
		}(c)
	}
	wg.Wait()

	total := 0
	for seed, bodies := range results {
		total += len(bodies)
		for _, b := range bodies[1:] {
			if !bytes.Equal(bodies[0], b) {
				t.Fatalf("seed %d: divergent assignments under concurrency", seed)
			}
		}
	}
	if total != clients*perClient {
		t.Fatalf("collected %d results, want %d", total, clients*perClient)
	}
	if v := metric(t, ts, "mdbgpd_jobs_failed_total"); v != 0 {
		t.Fatalf("jobs_failed_total = %v, want 0", v)
	}
	// Conservation: every accepted submission was a hit, a miss, or a
	// coalesced attach; hits+misses count cache decisions.
	submitted := metric(t, ts, "mdbgpd_jobs_submitted_total")
	hits := metric(t, ts, "mdbgpd_cache_hits_total")
	misses := metric(t, ts, "mdbgpd_cache_misses_total")
	if submitted != hits+misses {
		t.Fatalf("accounting: submitted %v != hits %v + misses %v", submitted, hits, misses)
	}
	if misses < distinct {
		t.Fatalf("misses %v < distinct graphs %d", misses, distinct)
	}
}

// TestWaitFallsBackToAsync: a wait bounded by a tiny MaxWait still returns
// the async envelope instead of blocking.
func TestWaitFallsBackToAsync(t *testing.T) {
	_, body := testGraph(t, 95)
	_, ts, entered, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2, MaxWait: 20 * time.Millisecond})

	done := make(chan map[string]any, 1)
	go func() {
		_, m := submit(t, ts, "seed=5&wait=true", body)
		done <- m
	}()
	<-entered
	select {
	case m := <-done:
		if m["status"] == "done" {
			t.Fatalf("wait with blocked solver reported done: %v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait=true did not fall back to async within MaxWait")
	}
	close(release)
}

// TestWriteAssignmentMatchesFprintf pins the assignment endpoint's bytes to
// the fmt.Fprintf("%d %d\n") formatting it replaced, across multi-digit
// vertex and part ids and more lines than one writer buffer holds.
func TestWriteAssignmentMatchesFprintf(t *testing.T) {
	parts := make([]int32, 30000)
	for v := range parts {
		parts[v] = int32(v * 7919 % (1 << 20)) // up to the largest k the daemon accepts
	}
	parts[1], parts[2] = 0, 9
	var want bytes.Buffer
	for v, p := range parts {
		fmt.Fprintf(&want, "%d %d\n", v, p)
	}
	var got bytes.Buffer
	if err := writeAssignment(&got, parts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("writeAssignment output differs from the fmt.Fprintf formatting")
	}
}
