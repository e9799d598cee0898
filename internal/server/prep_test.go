package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mdbgp"
)

// solveAndFetch submits with wait=true, polls to completion and returns the
// byte-exact assignment.
func solveAndFetch(t *testing.T, ts *httptest.Server, query string, body []byte) []byte {
	t.Helper()
	code, m := submit(t, ts, query+"&wait=true", body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit %q: status %d (%v)", query, code, m)
	}
	id := m["job_id"].(string)
	if v := pollDone(t, ts, id); v["status"] != "done" {
		t.Fatalf("job %s: %v", id, v)
	}
	return assignment(t, ts, id)
}

// TestPrepCachedSolveByteIdentical is the injection contract end to end: a
// solve that reuses a cached prep artifact (layout or hierarchy) must produce
// the same assignment, byte for byte, as a solve that rebuilds it — across
// every prep-capable engine and at several worker counts. The second request
// varies iters so it misses the RESULT cache (a real solve runs) while
// hitting the PREP cache (same graph, same artifact parameters).
func TestPrepCachedSolveByteIdentical(t *testing.T) {
	_, body := testGraph(t, 3)
	engines := []struct{ name, extra string }{
		{"gd", "&reorder=bfs"},         // layout artifact
		{"multilevel", "&reorder=bfs"}, // layout + hierarchy artifacts
		{"metis", ""},                  // hierarchy artifact
	}
	for _, eng := range engines {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s_p%d", eng.name, workers), func(t *testing.T) {
				_, tsCached := startServer(t, Config{Workers: 2, Parallelism: workers})
				_, tsRebuild := startServer(t, Config{Workers: 2, Parallelism: workers, PrepCacheBytes: -1})
				prime := "k=4&seed=7&engine=" + eng.name + eng.extra + "&iters=40"
				reuse := "k=4&seed=7&engine=" + eng.name + eng.extra + "&iters=60"
				solveAndFetch(t, tsCached, prime, body)
				if hits := metric(t, tsCached, "mdbgpd_prep_cache_hits_total"); hits != 0 {
					t.Fatalf("priming solve hit the prep cache (%g hits) — nothing could have built the artifact yet", hits)
				}
				got := solveAndFetch(t, tsCached, reuse, body)
				if hits := metric(t, tsCached, "mdbgpd_prep_cache_hits_total"); hits == 0 {
					t.Fatal("repeat solve did not hit the prep cache; injection is not wired")
				}
				want := solveAndFetch(t, tsRebuild, reuse, body)
				if !bytes.Equal(got, want) {
					t.Fatalf("cached-prep assignment differs from rebuilt-prep assignment (engine=%s workers=%d)", eng.name, workers)
				}
			})
		}
	}
}

// TestPrepKeyResolvedReorderMethod audits satellite concern #2: prep-cache
// keys must derive from the RESOLVED reorder method, so a request riding the
// fleet-wide -reorder default and a request spelling the same method
// explicitly share one artifact, while "none" builds nothing and a different
// method gets its own entry.
func TestPrepKeyResolvedReorderMethod(t *testing.T) {
	_, body := testGraph(t, 4)
	_, ts := startServer(t, Config{Workers: 1, Reorder: "bfs"})

	// No ?reorder=: the fleet default (bfs) applies; first sight builds.
	solveAndFetch(t, ts, "k=4&seed=7&engine=gd&iters=40", body)
	if e := metric(t, ts, "mdbgpd_prep_cache_entries"); e != 1 {
		t.Fatalf("after fleet-default solve: %g entries, want 1 layout", e)
	}
	// Explicit ?reorder=bfs must address the SAME artifact — resolved method,
	// not raw request spelling.
	solveAndFetch(t, ts, "k=4&seed=7&engine=gd&iters=50&reorder=bfs", body)
	if h := metric(t, ts, "mdbgpd_prep_cache_hits_total"); h != 1 {
		t.Fatalf("explicit reorder=bfs got %g prep hits, want 1 (shared with the fleet-default artifact)", h)
	}
	// Explicit ?reorder=none opts out of reordering entirely: no lookup, no
	// build, no new entry.
	before := metric(t, ts, "mdbgpd_prep_cache_misses_total")
	solveAndFetch(t, ts, "k=4&seed=7&engine=gd&iters=60&reorder=none", body)
	if e := metric(t, ts, "mdbgpd_prep_cache_entries"); e != 1 {
		t.Fatalf("reorder=none changed the entry count to %g", e)
	}
	if m := metric(t, ts, "mdbgpd_prep_cache_misses_total"); m != before {
		t.Fatalf("reorder=none performed a prep lookup (misses %g -> %g)", before, m)
	}
	// A different method is a different artifact.
	solveAndFetch(t, ts, "k=4&seed=7&engine=gd&iters=70&reorder=degree", body)
	if e := metric(t, ts, "mdbgpd_prep_cache_entries"); e != 2 {
		t.Fatalf("reorder=degree: %g entries, want 2 distinct layouts", e)
	}
}

// TestPrepKeyDerivation pins the key composition directly: every input that
// shapes an artifact must fork its key. The engines would catch a collision
// by degrading to a rebuild, but a collision still means one artifact family
// silently evicting the other on every alternation.
func TestPrepKeyDerivation(t *testing.T) {
	if layoutPrepKey("h", "bfs") == layoutPrepKey("h", "degree") {
		t.Fatal("layout keys collide across methods")
	}
	if layoutPrepKey("h1", "bfs") == layoutPrepKey("h2", "bfs") {
		t.Fatal("layout keys collide across graphs")
	}
	base := mdbgp.Options{Engine: "multilevel", Seed: 1, CoarsenTo: 100, ClusterSize: 8}
	k0 := hierarchyPrepKey("h", base, "deg")
	vary := map[string]mdbgp.Options{
		"engine":      {Engine: "metis", Seed: 1, CoarsenTo: 100, ClusterSize: 8},
		"seed":        {Engine: "multilevel", Seed: 2, CoarsenTo: 100, ClusterSize: 8},
		"coarsento":   {Engine: "multilevel", Seed: 1, CoarsenTo: 200, ClusterSize: 8},
		"clustersize": {Engine: "multilevel", Seed: 1, CoarsenTo: 100, ClusterSize: 16},
	}
	for name, o := range vary {
		if hierarchyPrepKey("h", o, "deg") == k0 {
			t.Fatalf("hierarchy key ignores %s", name)
		}
	}
	if hierarchyPrepKey("h", base, "unit") == k0 {
		t.Fatal("hierarchy key ignores the balance dimensions")
	}
	if hierarchyPrepKey("g", base, "deg") == k0 {
		t.Fatal("hierarchy key ignores the graph hash")
	}
	// Layout and hierarchy kinds must never collide even on equal params.
	if layoutPrepKey("h", "bfs") == hierarchyPrepKey("h", base, "deg") {
		t.Fatal("artifact kinds collide")
	}
}

// TestPrepEvictionMidFlight forces artifact eviction while solves are in
// flight: the budget is sized (by probing a real artifact) so two graphs'
// prep cannot coexist, then the two graphs alternate. Every solve must still
// complete and match a prep-disabled server byte for byte — an evicted
// artifact is only a lost amortization, never a lost (or corrupted) solve,
// because in-flight solves hold their own reference to the immutable
// artifact.
func TestPrepEvictionMidFlight(t *testing.T) {
	_, bodyA := testGraph(t, 1)
	_, bodyB := testGraph(t, 2)
	const q = "k=4&seed=7&engine=multilevel&reorder=bfs"

	// Probe: solve A once on a generously-budgeted server and read back how
	// many bytes its artifacts retain, so the real budget tracks the
	// generator instead of hard-coding sizes.
	_, tsProbe := startServer(t, Config{Workers: 1})
	solveAndFetch(t, tsProbe, q+"&iters=40", bodyA)
	perGraph := int64(metric(t, tsProbe, "mdbgpd_prep_cache_bytes"))
	if perGraph <= 0 {
		t.Fatalf("probe retained %d bytes; cannot size the eviction budget", perGraph)
	}

	_, ts := startServer(t, Config{Workers: 2, PrepCacheBytes: perGraph * 3 / 2})
	_, tsRebuild := startServer(t, Config{Workers: 2, PrepCacheBytes: -1})
	for i := 0; i < 3; i++ {
		iters := fmt.Sprintf("&iters=%d", 40+10*i)
		for _, body := range [][]byte{bodyA, bodyB} {
			got := solveAndFetch(t, ts, q+iters, body)
			want := solveAndFetch(t, tsRebuild, q+iters, body)
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: assignment diverged under prep eviction pressure", i)
			}
		}
	}
	if ev := metric(t, ts, "mdbgpd_prep_cache_evictions_total"); ev == 0 {
		t.Fatal("budget never forced an eviction; the test exercised nothing")
	}
	if cl := metric(t, ts, "mdbgpd_prep_cache_accounting_clamps_total"); cl != 0 {
		t.Fatalf("prep byte accounting clamped %g times", cl)
	}
}

// TestPrepConcurrentSameGraph races many submissions of one graph through a
// multi-worker server: concurrent misses double-build the same artifact (last
// Put wins), concurrent hits share one immutable instance, and every solve
// with identical options must come out byte-identical. Run under -race this
// also proves the cache and the shared artifacts are data-race free.
func TestPrepConcurrentSameGraph(t *testing.T) {
	_, body := testGraph(t, 5)
	_, ts := startServer(t, Config{Workers: 4})

	const lanes, perLane = 4, 3 // 4 distinct option sets × 3 identical requests
	results := make([][]byte, lanes*perLane)
	errs := make(chan error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("k=4&seed=9&engine=multilevel&reorder=bfs&iters=%d&wait=true", 40+10*(i%lanes))
			resp, err := http.Post(ts.URL+"/v1/partition?"+q, "text/plain", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			var m map[string]any
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			id, _ := m["job_id"].(string)
			if id == "" {
				errs <- fmt.Errorf("submit %q: no job id in %v", q, m)
				return
			}
			// wait=true returned, but guard against a MaxWait fallback by
			// polling the assignment until it stops answering 409.
			for {
				r2, err := http.Get(ts.URL + "/v1/jobs/" + id + "/assignment")
				if err != nil {
					errs <- err
					return
				}
				b, _ := io.ReadAll(r2.Body)
				r2.Body.Close()
				if r2.StatusCode == http.StatusOK {
					results[i] = b
					return
				}
				if r2.StatusCode != http.StatusConflict {
					errs <- fmt.Errorf("assignment %s: status %d: %s", id, r2.StatusCode, b)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for lane := 0; lane < lanes; lane++ {
		want := results[lane]
		for rep := 1; rep < perLane; rep++ {
			if got := results[lane+rep*lanes]; !bytes.Equal(got, want) {
				t.Fatalf("lane %d: concurrent identical submissions produced different assignments", lane)
			}
		}
	}
	if cl := metric(t, ts, "mdbgpd_prep_cache_accounting_clamps_total"); cl != 0 {
		t.Fatalf("prep byte accounting clamped %g times under concurrency", cl)
	}
}

// TestKernel32Param covers the float32-kernel opt-in at the HTTP surface:
// accepted on gradient engines (and forking the result-cache key, since the
// option is fingerprinted), refused with a 400 on engines that cannot honor
// it and on the incompatible incgrad combination.
func TestKernel32Param(t *testing.T) {
	_, body := testGraph(t, 6)
	_, ts := startServer(t, Config{Workers: 1})

	a64 := solveAndFetch(t, ts, "k=4&seed=7&engine=gd", body)
	a32 := solveAndFetch(t, ts, "k=4&seed=7&engine=gd&kernel32=true", body)
	if h := metric(t, ts, "mdbgpd_cache_hits_total"); h != 0 {
		t.Fatalf("kernel32=true shared a result-cache entry with the float64 solve (%g hits)", h)
	}
	// Same determinism contract, different rounding: both are valid
	// assignments of the same length.
	if len(a64) == 0 || len(a32) == 0 {
		t.Fatal("empty assignment")
	}
	// Re-submitting the kernel32 solve hits its own cache entry.
	solveAndFetch(t, ts, "k=4&seed=7&engine=gd&kernel32=true", body)
	if h := metric(t, ts, "mdbgpd_cache_hits_total"); h != 1 {
		t.Fatalf("repeat kernel32 solve: %g result-cache hits, want 1", h)
	}

	for _, q := range []string{
		"k=4&engine=fennel&kernel32=true",
		"k=4&engine=metis&kernel32=true",
		"k=4&engine=gd&kernel32=true&incgrad=true",
	} {
		if code, m := submit(t, ts, q, body); code != http.StatusBadRequest {
			t.Fatalf("submit %q: status %d (%v), want 400", q, code, m)
		}
	}
}

// TestPrepSurvivesResubmission is the pointer-canonicalization contract: a
// byte-identical resubmission parses into a NEW graph object, and prep
// artifacts validate by instance identity — so reuse only works because the
// graph cache canonicalizes same-content submissions onto the retained
// instance. Disable the graph cache and the same traffic degrades to rebuilds
// (honestly counted as misses), never to errors.
func TestPrepSurvivesResubmission(t *testing.T) {
	_, body := testGraph(t, 8)
	_, ts := startServer(t, Config{Workers: 1})
	solveAndFetch(t, ts, "k=4&seed=7&engine=gd&reorder=bfs&iters=40", body)
	solveAndFetch(t, ts, "k=4&seed=7&engine=gd&reorder=bfs&iters=50", body)
	if h := metric(t, ts, "mdbgpd_prep_cache_hits_total"); h != 1 {
		t.Fatalf("resubmission got %g prep hits, want 1 (graph canonicalization broken?)", h)
	}

	_, tsNoGraph := startServer(t, Config{Workers: 1, GraphCacheEntries: -1})
	solveAndFetch(t, tsNoGraph, "k=4&seed=7&engine=gd&reorder=bfs&iters=40", body)
	solveAndFetch(t, tsNoGraph, "k=4&seed=7&engine=gd&reorder=bfs&iters=50", body)
	if h := metric(t, tsNoGraph, "mdbgpd_prep_cache_hits_total"); h != 0 {
		t.Fatalf("without graph canonicalization the stale artifact must not hit (got %g hits)", h)
	}
}

// TestConcurrentFirstSolvesShareWeights: distinct jobs on one new graph
// whose dims include the retained (edge-traversing) ones start together and
// race to compute and store its vectors. Each must return the assignment a
// daemon without a graph cache — hence without retained vectors — returns;
// a repeat solve must read the vectors from the entry, and the graph-cache
// gauge must charge them. Meant to run under -race -count=10.
func TestConcurrentFirstSolvesShareWeights(t *testing.T) {
	g, body := testGraph(t, 29)
	_, ts := startServer(t, Config{Workers: 4, Parallelism: 1})
	_, ref := startServer(t, Config{Workers: 1, GraphCacheEntries: -1})
	queries := []string{
		"k=2&seed=1&iters=30&dims=vertices,edges,pagerank",
		"k=4&seed=2&iters=30&dims=vertices,pagerank,neighbor-degrees",
		"k=4&seed=3&iters=30&engine=multilevel&dims=vertices,edges,pagerank",
		"k=2&seed=4&engine=metis&dims=neighbor-degrees,pagerank",
	}
	ids := make([]string, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/partition?"+q+"&wait=true", "text/plain", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var m map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Errorf("%s: decoding submit response: %v", q, err)
				return
			}
			ids[i], _ = m["job_id"].(string)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, q := range queries {
		if v := pollDone(t, ts, ids[i]); v["status"] != "done" {
			t.Fatalf("%s: %v", q, v)
		}
		if got, want := assignment(t, ts, ids[i]), solveAndFetch(t, ref, q, body); !bytes.Equal(got, want) {
			t.Fatalf("%s: assignment differs from a daemon without retained vectors", q)
		}
	}
	want := graphEntryBytes(g.HashString(), g) + 2*8*int64(g.N())
	if b := metric(t, ts, "mdbgpd_graph_cache_bytes"); b != float64(want) {
		t.Fatalf("graph cache bytes = %g, want %d (CSR plus PageRank and neighbor-degree vectors)", b, want)
	}
	_, m := submit(t, ts, "k=8&seed=5&iters=30&dims=vertices,edges,pagerank&wait=true", body)
	id := m["job_id"].(string)
	pollDone(t, ts, id)
	if st := fetchTrace(t, ts, id).Structure(); !strings.Contains(st, "weights{cached=true}") {
		t.Fatalf("repeat solve did not read the retained vectors: %s", st)
	}
}
