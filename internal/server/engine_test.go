package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"mdbgp"
)

// TestEngineSelection drives every registered engine through the HTTP
// surface: each must complete, report its engine in the submit response and
// the job JSON, and produce a valid full assignment.
func TestEngineSelection(t *testing.T) {
	g, body := testGraph(t, 31)
	_, ts := startServer(t, Config{Workers: 2})
	for _, name := range mdbgp.EngineNames() {
		code, m := submit(t, ts, "k=4&seed=42&iters=30&engine="+name+"&wait=true", body)
		if code != http.StatusOK || m["status"] != "done" {
			t.Fatalf("engine %s: %d %v", name, code, m)
		}
		if m["engine"] != name {
			t.Fatalf("engine %s: submit response reports %v", name, m["engine"])
		}
		job := pollDone(t, ts, m["job_id"].(string))
		if job["engine"] != name {
			t.Fatalf("engine %s: job JSON reports %v", name, job["engine"])
		}
		a := assignment(t, ts, m["job_id"].(string))
		if lines := bytes.Count(a, []byte("\n")); lines != g.N() {
			t.Fatalf("engine %s: assignment has %d lines, want %d", name, lines, g.N())
		}
	}
	// The per-engine Prometheus labels account for every submission and
	// solve.
	for _, name := range mdbgp.EngineNames() {
		if v := metric(t, ts, `mdbgpd_jobs_by_engine_total{engine="`+name+`"}`); v != 1 {
			t.Fatalf("jobs_by_engine{%s} = %v, want 1", name, v)
		}
		if v := metric(t, ts, `mdbgpd_solves_by_engine_total{engine="`+name+`"}`); v != 1 {
			t.Fatalf("solves_by_engine{%s} = %v, want 1", name, v)
		}
	}
}

// TestEngineOmittedDefaultsToGD: requests without ?engine= keep their
// historical meaning, and job metadata says so explicitly.
func TestEngineOmittedDefaultsToGD(t *testing.T) {
	_, body := testGraph(t, 32)
	_, ts := startServer(t, Config{Workers: 1})
	code, m := submit(t, ts, "k=2&seed=1&iters=20&wait=true", body)
	if code != http.StatusOK || m["engine"] != "gd" {
		t.Fatalf("default engine: %d %v", code, m)
	}
}

// TestEngineCacheKeysNeverCollide submits one graph under every engine and
// asserts each got a distinct content key and none was served from another
// engine's cache entry — the serving half of the fingerprint collision
// audit.
func TestEngineCacheKeysNeverCollide(t *testing.T) {
	_, body := testGraph(t, 33)
	_, ts := startServer(t, Config{Workers: 2})
	keys := map[string]string{}
	for _, name := range mdbgp.EngineNames() {
		code, m := submit(t, ts, "k=4&seed=42&iters=30&engine="+name+"&wait=true", body)
		if code != http.StatusOK {
			t.Fatalf("engine %s: %d %v", name, code, m)
		}
		if m["cache"] != "miss" {
			t.Fatalf("engine %s was served from another engine's cache entry: %v", name, m)
		}
		key := m["key"].(string)
		for prior, pk := range keys {
			if pk == key {
				t.Fatalf("engines %s and %s share cache key %s", prior, name, key)
			}
		}
		keys[name] = key
	}
}

func TestEngineParamErrors(t *testing.T) {
	_, body := testGraph(t, 34)
	_, ts := startServer(t, Config{Workers: 1})

	// Unknown engine: 400 naming the known engines.
	code, m := submit(t, ts, "k=2&engine=simulated-annealing", body)
	if code != http.StatusBadRequest || !strings.Contains(m["error"].(string), "unknown engine") {
		t.Fatalf("unknown engine: %d %v", code, m)
	}
	// Explicit dims on an engine without weighted support: 422, the request
	// is well-formed but semantically unsatisfiable.
	code, m = submit(t, ts, "k=2&engine=fennel&dims=vertices,edges", body)
	if code != http.StatusUnprocessableEntity || !strings.Contains(m["error"].(string), "cannot balance") {
		t.Fatalf("dims on non-weighted engine: %d %v", code, m)
	}
	// The same dims on a weighted engine are fine.
	code, _ = submit(t, ts, "k=2&seed=5&iters=20&engine=blp&dims=vertices,edges&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("dims on weighted engine: %d", code)
	}
	// Default dims on a non-weighted engine are fine too: the engine solves
	// on its own terms and the job reports how the defaults came out.
	code, _ = submit(t, ts, "k=2&seed=5&engine=fennel&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("default dims on non-weighted engine: %d", code)
	}
}

// TestDeltaEngineWithoutWarmFallsBackCold: a delta submission naming a
// cold-only engine is capability-degraded, not an error — the server
// materializes the target graph and solves cold, recording why.
func TestDeltaEngineWithoutWarmFallsBackCold(t *testing.T) {
	g, body := testGraph(t, 35)
	_, ts := startServer(t, Config{Workers: 1})

	code, m := submit(t, ts, "k=4&seed=42&engine=fennel&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("base: %d %v", code, m)
	}
	code, m2, dv := submitDelta(t, ts, "k=4&seed=42&engine=fennel&wait=true&base="+m["job_id"].(string), smallDelta(t, g))
	if code != http.StatusOK || m2["status"] != "done" {
		t.Fatalf("delta: %d %v", code, m2)
	}
	if dv["mode"] != "cold" || dv["cold_reason"] != "engine lacks warm-start capability" {
		t.Fatalf("delta resolution = %v, want capability-degraded cold", dv)
	}
	if dv["chain_depth"].(float64) != 0 {
		t.Fatalf("cold solve chain_depth = %v, want 0", dv["chain_depth"])
	}
	if v := metric(t, ts, "mdbgpd_delta_cold_total"); v != 1 {
		t.Fatalf("delta_cold_total = %v, want 1", v)
	}
}

// chainDelta builds a tiny always-applicable delta unique per hop: it adds
// one fresh edge between two fresh vertices (tethered to vertex 0 so the
// graph stays connected), so churn stays negligible and each hop's graph is
// distinct.
func chainDelta(hop int, n int) []byte {
	u := n + 2*hop
	return []byte(fmt.Sprintf("+ %d %d\n+ 0 %d\n", u, u+1, u))
}

// TestDeltaChainDepthLimit is the regression test for the base-chain depth
// bound: a delta-of-a-delta chain accrues chain_depth per warm hop, the hop
// that would exceed MaxChainDepth is forced cold ("chain depth limit"), the
// forced-cold solve resets the lineage to depth 0, and the hop after THAT
// warm-starts again from the fresh solution.
func TestDeltaChainDepthLimit(t *testing.T) {
	g, body := testGraph(t, 36)
	_, ts := startServer(t, Config{Workers: 1, MaxChainDepth: 2})

	code, m := submit(t, ts, "k=4&seed=42&iters=30&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("base: %d %v", code, m)
	}
	prev := m["job_id"].(string)

	type hop struct {
		mode   string
		reason string
		depth  float64
	}
	want := []hop{
		{mode: "warm", depth: 1},
		{mode: "warm", depth: 2},
		{mode: "cold", reason: "chain depth limit", depth: 0},
		{mode: "warm", depth: 1}, // the forced-cold solve restarted the lineage
	}
	for i, w := range want {
		code, m2, dv := submitDelta(t, ts, "k=4&seed=42&iters=30&wait=true&base="+prev, chainDelta(i, g.N()))
		if code != http.StatusOK || m2["status"] != "done" {
			t.Fatalf("hop %d: %d %v", i, code, m2)
		}
		if dv["mode"] != w.mode {
			t.Fatalf("hop %d mode = %v, want %s (%v)", i, dv["mode"], w.mode, dv)
		}
		reason, _ := dv["cold_reason"].(string)
		if w.reason != "" && reason != w.reason {
			t.Fatalf("hop %d cold_reason = %q, want %q", i, reason, w.reason)
		}
		if dv["chain_depth"].(float64) != w.depth {
			t.Fatalf("hop %d chain_depth = %v, want %g", i, dv["chain_depth"], w.depth)
		}
		prev = m2["job_id"].(string)
	}
	if v := metric(t, ts, "mdbgpd_delta_chain_resets_total"); v != 1 {
		t.Fatalf("delta_chain_resets_total = %v, want 1", v)
	}
}

// TestDeltaChainUnlimitedWhenDisabled: a negative MaxChainDepth lifts the
// bound — depth keeps accruing and no hop is forced cold.
func TestDeltaChainUnlimitedWhenDisabled(t *testing.T) {
	g, body := testGraph(t, 37)
	_, ts := startServer(t, Config{Workers: 1, MaxChainDepth: -1})

	code, m := submit(t, ts, "k=4&seed=42&iters=30&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("base: %d %v", code, m)
	}
	prev := m["job_id"].(string)
	for i := 0; i < 10; i++ {
		code, m2, dv := submitDelta(t, ts, "k=4&seed=42&iters=30&wait=true&base="+prev, chainDelta(i, g.N()))
		if code != http.StatusOK {
			t.Fatalf("hop %d: %d %v", i, code, m2)
		}
		if dv["mode"] != "warm" {
			t.Fatalf("hop %d went %v (%v) with the limit disabled", i, dv["mode"], dv)
		}
		if dv["chain_depth"].(float64) != float64(i+1) {
			t.Fatalf("hop %d chain_depth = %v, want %d", i, dv["chain_depth"], i+1)
		}
		prev = m2["job_id"].(string)
	}
}
