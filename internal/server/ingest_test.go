package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"mdbgp"
	"mdbgp/internal/wire"
)

// submitWire POSTs body to /v1/partition?query under the binary content type.
func submitWire(t *testing.T, ts *httptest.Server, query string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/partition?"+query, wire.ContentType, bytes.NewReader(body))
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

// wireBody encodes g in the binary wire format.
func wireBody(t *testing.T, g *mdbgp.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.Encode(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinarySubmitSharesCacheWithText: the codec must be invisible to content
// addressing — a text upload and a binary upload of the same graph land on
// the same canonical hash, the same cache key, and therefore the same cached
// result.
func TestBinarySubmitSharesCacheWithText(t *testing.T) {
	g, text := testGraph(t, 7)
	_, ts := startServer(t, Config{Workers: 2})

	code, m1 := submit(t, ts, "k=4&seed=1&wait=true", text)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("text submit: status %d (%v)", code, m1)
	}
	done1 := pollDone(t, ts, m1["job_id"].(string))
	if done1["status"] != "done" {
		t.Fatalf("text job: %v", done1)
	}
	if done1["ingest_mode"] != "resident" {
		t.Fatalf("text job ingest_mode = %v, want resident", done1["ingest_mode"])
	}

	code, m2 := submitWire(t, ts, "k=4&seed=1&wait=true", wireBody(t, g))
	if code != http.StatusOK {
		t.Fatalf("binary submit after identical text submit: status %d (%v), want 200 cache hit", code, m2)
	}
	if m2["cache"] != "hit" {
		t.Fatalf("binary submit cache = %v, want hit", m2["cache"])
	}
	if m1["graph_hash"] != m2["graph_hash"] {
		t.Fatalf("codec changed the content address: text %v, binary %v", m1["graph_hash"], m2["graph_hash"])
	}
	if m1["key"] != m2["key"] {
		t.Fatalf("codec changed the cache key: text %v, binary %v", m1["key"], m2["key"])
	}
	a1 := assignment(t, ts, m1["job_id"].(string))
	a2 := assignment(t, ts, m2["job_id"].(string))
	if !bytes.Equal(a1, a2) {
		t.Fatal("text-solved and binary-hit assignments differ")
	}
}

// TestBinaryDeterminismAcrossWorkerCounts: a binary upload solves to
// byte-identical assignments at any worker count, same as text.
func TestBinaryDeterminismAcrossWorkerCounts(t *testing.T) {
	g, _ := testGraph(t, 11)
	body := wireBody(t, g)
	var ref []byte
	var refKey any
	for _, workers := range []int{1, 2, 8} {
		_, ts := startServer(t, Config{Workers: workers})
		code, m := submitWire(t, ts, "k=4&seed=3&wait=true", body)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("workers=%d: status %d (%v)", workers, code, m)
		}
		done := pollDone(t, ts, m["job_id"].(string))
		if done["status"] != "done" {
			t.Fatalf("workers=%d: %v", workers, done)
		}
		a := assignment(t, ts, m["job_id"].(string))
		if ref == nil {
			ref, refKey = a, m["key"]
			continue
		}
		if m["key"] != refKey {
			t.Fatalf("workers=%d: key %v, want %v", workers, m["key"], refKey)
		}
		if !bytes.Equal(a, ref) {
			t.Fatalf("workers=%d: assignment differs from workers=1", workers)
		}
	}
}

// TestOutOfCoreFlow drives the full above-budget path through real HTTP: a
// binary upload larger than MaxResidentEdges auto-routes to the streaming
// fennel engine, spills to disk, solves, reports ingest_mode=out-of-core,
// and leaves the spill directory empty when done. A repeat upload is a cache
// hit (and must clean up its own spill too).
func TestOutOfCoreFlow(t *testing.T) {
	g, text := testGraph(t, 13) // ~1600 edges
	spillDir := t.TempDir()
	_, ts := startServer(t, Config{Workers: 2, MaxResidentEdges: 100, SpillDir: spillDir})
	body := wireBody(t, g)

	code, m := submitWire(t, ts, "k=4&wait=true", body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("ooc submit: status %d (%v)", code, m)
	}
	if m["ingest_mode"] != "out-of-core" {
		t.Fatalf("ingest_mode = %v, want out-of-core", m["ingest_mode"])
	}
	if m["engine"] != "fennel" {
		t.Fatalf("engine = %v, want auto-routed fennel", m["engine"])
	}
	done := pollDone(t, ts, m["job_id"].(string))
	if done["status"] != "done" {
		t.Fatalf("ooc job failed: %v", done)
	}
	res := done["result"].(map[string]any)
	if res["k"].(float64) != 4 {
		t.Fatalf("result k = %v", res["k"])
	}
	if loc := res["edge_locality"].(float64); loc <= 0.25 {
		t.Fatalf("ooc locality %v not better than random (0.25)", loc)
	}
	if got := len(assignment(t, ts, m["job_id"].(string))); got == 0 {
		t.Fatal("empty ooc assignment")
	}
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir not cleaned after solve: %d entries", len(entries))
	}
	if v := metric(t, ts, "mdbgpd_ooc_jobs_total"); v != 1 {
		t.Fatalf("mdbgpd_ooc_jobs_total = %v, want 1", v)
	}
	if v := metric(t, ts, "mdbgpd_spill_active"); v != 0 {
		t.Fatalf("mdbgpd_spill_active = %v, want 0", v)
	}

	// Repeat: served from cache under the :ooc key, spill removed on the hit
	// path.
	code, m2 := submitWire(t, ts, "k=4&wait=true", body)
	if code != http.StatusOK || m2["cache"] != "hit" {
		t.Fatalf("ooc resubmit: status %d cache %v, want 200 hit", code, m2["cache"])
	}
	if m2["ingest_mode"] != "out-of-core" {
		t.Fatalf("ooc resubmit ingest_mode = %v", m2["ingest_mode"])
	}
	if entries, _ := os.ReadDir(spillDir); len(entries) != 0 {
		t.Fatalf("spill dir not cleaned after cache hit: %d entries", len(entries))
	}

	// The same graph as text is rejected with guidance, not materialized.
	if code, _ := submit(t, ts, "k=4", text); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget text submit: status %d, want 413", code)
	}

	// In-core fennel and out-of-core fennel must not share a cache key: the
	// same request against an unbudgeted server is a miss, not a hit.
	_, ts2 := startServer(t, Config{Workers: 2})
	code, m3 := submitWire(t, ts2, "k=4&engine=fennel&wait=true", body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("resident fennel submit: status %d", code)
	}
	if key2, key := m3["key"].(string), m["key"].(string); key2+":ooc" != key {
		t.Fatalf("expected ooc key = resident key + \":ooc\"; got resident %q, ooc %q", key2, key)
	}
}

// TestOutOfCoreRequiresStreamingEngine: explicit engine or dims choices are
// never silently downgraded — above budget they fail with 413 and guidance.
func TestOutOfCoreRequiresStreamingEngine(t *testing.T) {
	g, _ := testGraph(t, 17)
	_, ts := startServer(t, Config{Workers: 1, MaxResidentEdges: 100, SpillDir: t.TempDir()})
	body := wireBody(t, g)

	for _, query := range []string{"k=4&engine=gd", "k=4&dims=vertices"} {
		code, m := submitWire(t, ts, query, body)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d (%v), want 413", query, code, m)
		}
	}
	// Explicitly asking for the streaming engine is fine.
	code, m := submitWire(t, ts, "k=4&engine=fennel&wait=true", body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("explicit fennel: status %d (%v)", code, m)
	}
	if done := pollDone(t, ts, m["job_id"].(string)); done["status"] != "done" {
		t.Fatalf("explicit fennel ooc job: %v", done)
	}
}

// TestBinaryRejections covers the binary-specific 400s: corrupt streams,
// weighted uploads, deltas, and empty graphs.
func TestBinaryRejections(t *testing.T) {
	g, _ := testGraph(t, 19)
	_, ts := startServer(t, Config{Workers: 1})
	body := wireBody(t, g)

	// Corrupt one payload byte past the header: CRC catches it.
	bad := append([]byte(nil), body...)
	bad[wire.HeaderSize+10] ^= 0xFF
	if code, _ := submitWire(t, ts, "k=4", bad); code != http.StatusBadRequest {
		t.Fatalf("corrupt stream: status %d, want 400", code)
	}

	// Weighted files are a CLI feature; the endpoint refuses them.
	var weighted bytes.Buffer
	w := make([]float64, g.N())
	for i := range w {
		w[i] = 1
	}
	if err := wire.Encode(&weighted, g, [][]float64{w}); err != nil {
		t.Fatal(err)
	}
	if code, m := submitWire(t, ts, "k=4", weighted.Bytes()); code != http.StatusBadRequest {
		t.Fatalf("weighted upload: status %d (%v), want 400", code, m)
	}

	// Binary deltas have no defined semantics.
	if code, _ := submitWire(t, ts, "k=4&base="+g.HashString(), body); code != http.StatusBadRequest {
		t.Fatalf("binary delta: status %d, want 400", code)
	}

	// An empty graph is rejected before any chunk is read.
	var empty bytes.Buffer
	enc, err := wire.NewEncoder(&empty, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if code, _ := submitWire(t, ts, "k=4", empty.Bytes()); code != http.StatusBadRequest {
		t.Fatalf("empty graph: status %d, want 400", code)
	}

	// Garbage that is not even a header.
	if code, _ := submitWire(t, ts, "k=4", []byte("definitely not a wire stream")); code != http.StatusBadRequest {
		t.Fatalf("garbage: status %d, want 400", code)
	}
}

// asymmetricWireBody encodes a syntactically valid stream whose adjacency is
// not symmetric: vertex 0 lists 1..deg, but no row lists 0 back. The encoder
// only enforces row-local canonicality, so this passes every decoder check.
func asymmetricWireBody(t *testing.T, n, deg int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := wire.NewEncoder(&buf, n, int64(deg), false)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int32, deg)
	for i := range row {
		row[i] = int32(i + 1)
	}
	if err := enc.AddRow(row); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < n; v++ {
		if err := enc.AddRow(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hubMissingArcsWireBody encodes a stream in which every vertex lists the hub
// 0, but the hub lists only 1, 2 and 3: the missing reverse arcs belong to
// the highest-degree row.
func hubMissingArcsWireBody(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := wire.NewEncoder(&buf, n, int64(3+n-1), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.AddRow([]int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < n; v++ {
		if err := enc.AddRow([]int32{0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryRejectsAsymmetric: the engines assume a symmetric canonical CSR,
// so both ingest paths must refuse an asymmetric stream — the resident path
// via Graph.Validate, the out-of-core path via the streaming pairing check —
// and the out-of-core rejection must not leak its spill file.
func TestBinaryRejectsAsymmetric(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	code, m := submitWire(t, ts, "k=2", asymmetricWireBody(t, 8, 4))
	if code != http.StatusBadRequest {
		t.Fatalf("resident asymmetric upload: status %d (%v), want 400", code, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "symmetric") {
		t.Fatalf("resident rejection does not mention symmetry: %v", m)
	}
	code, m = submitWire(t, ts, "k=2", hubMissingArcsWireBody(t, 8))
	if msg, _ := m["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "edge 4->0 not symmetric") {
		t.Fatalf("resident upload missing the hub's reverse arcs: status %d (%v), want 400 naming edge 4->0", code, m)
	}

	spillDir := t.TempDir()
	_, ts2 := startServer(t, Config{Workers: 1, MaxResidentEdges: 100, SpillDir: spillDir})
	code, m = submitWire(t, ts2, "k=2", asymmetricWireBody(t, 300, 256)) // 128 claimed edges > budget
	if code != http.StatusBadRequest {
		t.Fatalf("out-of-core asymmetric upload: status %d (%v), want 400", code, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "asymmetric") {
		t.Fatalf("ooc rejection does not mention asymmetry: %v", m)
	}
	if entries, _ := os.ReadDir(spillDir); len(entries) != 0 {
		t.Fatalf("spill dir not cleaned after rejection: %d entries", len(entries))
	}
}
