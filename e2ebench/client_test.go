package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mdbgp"
)

// A delta whose base is gone (410) is resent as the full graph; the resend
// meets a full queue once (429, Retry-After: 0), is then accepted with 202,
// and the client polls until the job is done before fetching the assignment.
func TestClientFollowsProtocol(t *testing.T) {
	var mu sync.Mutex
	var submits []string
	var bodies []string
	polls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		reply := func(code int, v any) {
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(v)
		}
		switch r.URL.Path {
		case "/v1/partition":
			b, _ := io.ReadAll(r.Body)
			submits = append(submits, r.URL.RawQuery)
			bodies = append(bodies, string(b))
			switch len(submits) {
			case 1:
				reply(http.StatusGone, map[string]any{"error": "base graph is no longer cached; resubmit the full graph"})
			case 2:
				w.Header().Set("Retry-After", "0")
				reply(http.StatusTooManyRequests, map[string]any{"error": "job queue is full; retry later"})
			default:
				reply(http.StatusAccepted, map[string]any{"job_id": "j7", "status": "queued", "cache": "miss"})
			}
		case "/v1/jobs/j7":
			polls++
			if polls < 3 {
				reply(http.StatusOK, map[string]any{"id": "j7", "status": "running"})
				return
			}
			reply(http.StatusOK, map[string]any{"id": "j7", "status": "done", "cache": "miss", "key": "k",
				"result": map[string]any{"k": 2, "edge_locality": 1, "cut_edges": 0, "imbalances": []float64{0}}})
		case "/v1/jobs/j7/assignment":
			io.WriteString(w, "0 0\n1 0\n")
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	g := mdbgp.FromEdges(2, []mdbgp.Edge{{U: 0, V: 1}})
	full := &version{g: g, body: []byte("0 1\n")}
	o := &op{kind: "delta", query: "engine=gd&k=2&seed=1", body: []byte("+0 1\n"), ver: full, base: &version{g: g}, k: 2}
	c := &client{base: srv.URL, hc: newHTTPClient()}
	out, err := c.do(context.Background(), o, "j3", "t")
	if err != nil {
		t.Fatal(err)
	}
	if !out.resubmit || out.rejected != 1 {
		t.Errorf("resubmit = %v, rejected = %d; want true, 1", out.resubmit, out.rejected)
	}
	want := []string{"engine=gd&k=2&seed=1&wait=true&base=j3", "engine=gd&k=2&seed=1&wait=true", "engine=gd&k=2&seed=1&wait=true"}
	if len(submits) != 3 || submits[0] != want[0] || submits[1] != want[1] || submits[2] != want[2] {
		t.Errorf("submits = %q, want %q", submits, want)
	}
	if bodies[0] != "+0 1\n" || bodies[2] != "0 1\n" {
		t.Errorf("bodies = %q: want the delta first and the full graph on resubmission", bodies)
	}
	if polls != 3 || string(out.assignment) != "0 0\n1 0\n" || out.job.Status != "done" {
		t.Errorf("polls = %d, assignment %q, status %q", polls, out.assignment, out.job.Status)
	}
}
