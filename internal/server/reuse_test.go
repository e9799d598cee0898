package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mdbgp"
	"mdbgp/internal/obs"
	"mdbgp/internal/wire"
)

// upload submits body under the given content type (wire.ContentType selects
// the binary codec) with an optional trusted-hash header, waits for the job
// and returns the submit response.
func upload(t *testing.T, ts *httptest.Server, contentType, hashHeader, query string, body []byte) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/partition?"+query+"&wait=true", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if hashHeader != "" {
		req.Header.Set(GraphHashHeader, hashHeader)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if id, ok := m["job_id"].(string); ok {
		if v := pollDone(t, ts, id); v["status"] != "done" {
			t.Fatalf("job %s: %v", id, v)
		}
	}
	return resp.StatusCode, m
}

// reusedAttr returns the reused attribute of job id's ingest span.
func reusedAttr(t *testing.T, ts *httptest.Server, id string) bool {
	t.Helper()
	var reused any
	fetchTrace(t, ts, id).Walk(func(v *obs.SpanView) {
		if v.Name == "ingest" {
			reused = v.Attrs["reused"]
		}
	})
	b, ok := reused.(bool)
	if !ok {
		t.Fatalf("job %s: ingest span has no boolean reused attribute (%v)", id, reused)
	}
	return b
}

// jobSummary is what a hit must report exactly as the slow path does.
func jobSummary(t *testing.T, ts *httptest.Server, m map[string]any) [4]any {
	t.Helper()
	_, v := getJSON(t, ts.URL+"/v1/jobs/"+m["job_id"].(string))
	g := v["graph"].(map[string]any)
	return [4]any{v["graph_hash"], g["n"], g["m"], v["ingest_mode"]}
}

// TestReuploadSkipsIngest: the second upload of a byte-identical body, text
// or binary, at a new seed takes the digest path (traced reused=true,
// counted), reports the graph hash, size and ingest mode of the first, and
// answers byte for byte what a daemon without a graph cache answers. A body
// with one byte changed misses: a text body solves its own graph, a binary
// one fails its chunk CRC.
func TestReuploadSkipsIngest(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})
	_, ref := startServer(t, Config{Workers: 1, GraphCacheEntries: -1})
	_, text := testGraph(t, 81)
	gb, _ := testGraph(t, 82)
	bin := wireBody(t, gb)

	reused := 0.0
	for _, tc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"text", "text/plain", text},
		{"binary", wire.ContentType, bin},
	} {
		var first [4]any
		for i, query := range []string{"k=4&seed=1", "k=4&seed=2", "k=2&seed=1"} {
			_, m := upload(t, ts, tc.contentType, "", query, tc.body)
			id := m["job_id"].(string)
			if got, want := reusedAttr(t, ts, id), i > 0; got != want {
				t.Fatalf("%s upload %d: ingest reused=%v, want %v", tc.name, i+1, got, want)
			}
			if i > 0 {
				reused++
			}
			if got := metric(t, ts, "mdbgpd_ingest_reused_total"); got != reused {
				t.Fatalf("%s upload %d: mdbgpd_ingest_reused_total = %g, want %g", tc.name, i+1, got, reused)
			}
			if sum := jobSummary(t, ts, m); i == 0 {
				first = sum
			} else if sum != first {
				t.Fatalf("%s upload %d reports %v, the first reported %v", tc.name, i+1, sum, first)
			}
			_, rm := upload(t, ref, tc.contentType, "", query, tc.body)
			if !bytes.Equal(assignment(t, ts, id), assignment(t, ref, rm["job_id"].(string))) {
				t.Fatalf("%s upload %d (%s): assignment differs from a daemon without a graph cache", tc.name, i+1, query)
			}
		}
	}

	// One byte changed: the last digit of the last edge line names another
	// vertex, so the body is another graph.
	changed := append([]byte(nil), text...)
	changed[len(changed)-2] = '0' + (changed[len(changed)-2]-'0'+1)%10
	want, err := mdbgp.ReadEdgeList(bytes.NewReader(changed))
	if err != nil {
		t.Fatal(err)
	}
	_, m := upload(t, ts, "text/plain", "", "k=4&seed=1", changed)
	id := m["job_id"].(string)
	if reusedAttr(t, ts, id) || m["graph_hash"] != want.HashString() {
		t.Fatalf("changed text body: reused=%v graph_hash=%v, want a miss on %s", reusedAttr(t, ts, id), m["graph_hash"], want.HashString())
	}
	_, rm := upload(t, ref, "text/plain", "", "k=4&seed=1", changed)
	if !bytes.Equal(assignment(t, ts, id), assignment(t, ref, rm["job_id"].(string))) {
		t.Fatal("changed text body: assignment differs from a daemon without a graph cache")
	}
	corrupt := append([]byte(nil), bin...)
	corrupt[wire.HeaderSize+10] ^= 0xFF
	if code, m := upload(t, ts, wire.ContentType, "", "k=4&seed=1", corrupt); code != http.StatusBadRequest {
		t.Fatalf("binary body with one byte changed: status %d (%v), want 400", code, m)
	}
	// The digest covers the codec: the recorded binary bytes sent as text
	// are parsed as text, which refuses them.
	if code, m := upload(t, ts, "text/plain", "", "k=4&seed=1", bin); code != http.StatusBadRequest {
		t.Fatalf("binary body sent as text: status %d (%v), want 400", code, m)
	}
	if got := metric(t, ts, "mdbgpd_ingest_reused_total"); got != reused {
		t.Fatalf("changed bodies moved mdbgpd_ingest_reused_total to %g", got)
	}
}

// TestRejectedBodiesAreNeverReused: a body the slow path refuses is refused
// the same way every time, because no digest is recorded for it.
func TestRejectedBodiesAreNeverReused(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, MaxResidentEdges: 100})
	_, text := testGraph(t, 83) // ~1600 edges, above the budget
	asym := asymmetricWireBody(t, 8, 4)
	for i := 0; i < 2; i++ {
		if code, m := upload(t, ts, wire.ContentType, "", "k=2", asym); code != http.StatusBadRequest {
			t.Fatalf("asymmetric binary upload %d: status %d (%v), want 400", i+1, code, m)
		}
		if code, m := upload(t, ts, "text/plain", "", "k=2", text); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("text upload %d above the resident budget: status %d (%v), want 413", i+1, code, m)
		}
	}
	if got := metric(t, ts, "mdbgpd_ingest_reused_total"); got != 0 {
		t.Fatalf("mdbgpd_ingest_reused_total = %g after rejected uploads, want 0", got)
	}
}

// TestReuploadAfterEviction: once the graph cache evicts a graph, its digest
// goes with it, so the next upload of that body misses and answers the same.
func TestReuploadAfterEviction(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, GraphCacheEntries: 1})
	_, a := testGraph(t, 84)
	_, b := testGraph(t, 85)
	_, m1 := upload(t, ts, "text/plain", "", "k=4&seed=1", a)
	upload(t, ts, "text/plain", "", "k=4&seed=1", b) // evicts a's graph
	_, m2 := upload(t, ts, "text/plain", "", "k=4&seed=1", a)
	id1, id2 := m1["job_id"].(string), m2["job_id"].(string)
	if reusedAttr(t, ts, id2) {
		t.Fatal("upload of an evicted graph's body took the digest path")
	}
	if jobSummary(t, ts, m1) != jobSummary(t, ts, m2) || !bytes.Equal(assignment(t, ts, id1), assignment(t, ts, id2)) {
		t.Fatal("upload after eviction answered differently")
	}
	if got := metric(t, ts, "mdbgpd_graph_cache_evictions_total"); got != 2 {
		t.Fatalf("mdbgpd_graph_cache_evictions_total = %g, want 2", got)
	}
}

// TestTrustedHashIsNeverRecorded: under TrustHashHeader an upload whose hash
// came from the header records no digest, so a later plain upload of the
// same body reports the hash the server computes itself; and a recorded
// digest does not override a trusted header naming another hash.
func TestTrustedHashIsNeverRecorded(t *testing.T) {
	g, body := testGraph(t, 86)
	fake := strings.Repeat("cd34", 16)
	_, ts := startServer(t, Config{Workers: 1, TrustHashHeader: true})
	if _, m := upload(t, ts, "text/plain", fake, "k=2&seed=1", body); m["graph_hash"] != fake {
		t.Fatalf("trusted upload: graph_hash %v, want %s", m["graph_hash"], fake)
	}
	_, m := upload(t, ts, "text/plain", "", "k=2&seed=1", body)
	if m["graph_hash"] != g.HashString() || reusedAttr(t, ts, m["job_id"].(string)) {
		t.Fatalf("plain upload after a trusted one: graph_hash %v reused=%v, want %s computed locally",
			m["graph_hash"], reusedAttr(t, ts, m["job_id"].(string)), g.HashString())
	}
	if _, m := upload(t, ts, "text/plain", fake, "k=2&seed=2", body); m["graph_hash"] != fake {
		t.Fatalf("trusted upload after a recorded one: graph_hash %v, want %s", m["graph_hash"], fake)
	}
}

// TestConcurrentReuploadsShareOneInstance: eight concurrent uploads of one
// body, at eight seeds, each answer what a daemon without a graph cache
// answers, and the daemon retains one instance of the graph with one digest
// record. Meant to run under -race -count=10.
func TestConcurrentReuploadsShareOneInstance(t *testing.T) {
	g, body := testGraph(t, 87)
	s, ts := startServer(t, Config{Workers: 4, Parallelism: 1})
	_, ref := startServer(t, Config{Workers: 1, GraphCacheEntries: -1})
	const uploads = 8
	ids := make([]string, uploads)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(fmt.Sprintf("%s/v1/partition?k=4&iters=30&wait=true&seed=%d", ts.URL, i+1), "text/plain", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var m map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Errorf("upload %d: decoding submit response: %v", i, err)
				return
			}
			ids[i], _ = m["job_id"].(string)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, id := range ids {
		if v := pollDone(t, ts, id); v["status"] != "done" || v["graph_hash"] != g.HashString() {
			t.Fatalf("upload %d: %v", i, v)
		}
		query := fmt.Sprintf("k=4&iters=30&seed=%d", i+1)
		if !bytes.Equal(assignment(t, ts, id), solveAndFetch(t, ref, query, body)) {
			t.Fatalf("upload %d: assignment differs from a daemon without a graph cache", i)
		}
	}
	if n, b := s.graphs.stats(); n != 1 || b != graphEntryBytes(g.HashString(), g)+bodyRecordBytes {
		t.Fatalf("graph cache holds %d entries / %d bytes, want one instance with one digest record", n, b)
	}
	_, m := upload(t, ts, "text/plain", "", "k=4&iters=30&seed=9", body)
	if !reusedAttr(t, ts, m["job_id"].(string)) {
		t.Fatal("upload after the concurrent ones did not take the digest path")
	}
}
