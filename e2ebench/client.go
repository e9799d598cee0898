package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mdbgp"
	"mdbgp/internal/wire"
)

// client drives the daemon's public HTTP API.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder // nil in untimed and end-to-end runs: no benchmark spans
}

// newHTTPClient allows at most two connections to the daemon: the
// load generator never has more than two requests in flight.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// jobResult is the result block of GET /v1/jobs/{id}.
type jobResult struct {
	K            int       `json:"k"`
	EdgeLocality float64   `json:"edge_locality"`
	CutEdges     int64     `json:"cut_edges"`
	Imbalances   []float64 `json:"imbalances"`
}

type jobView struct {
	ID        string     `json:"id"`
	Status    string     `json:"status"`
	Cache     string     `json:"cache"`
	Key       string     `json:"key"`
	GraphHash string     `json:"graph_hash"`
	Error     string     `json:"error"`
	Result    *jobResult `json:"result"`
}

type submitResponse struct {
	JobID string `json:"job_id"`
	Error string `json:"error"`
}

// outcome is one completed request as the client saw it.
type outcome struct {
	op         *op
	job        jobView
	assignment []byte
	latency    time.Duration
	resubmit   bool            // the delta's base was gone and the full graph was sent
	rejected   int             // 429 answers honored before the submit was accepted
	trace      int             // client span id of the request (-1 when untraced)
	tree       *mdbgp.SpanView // the daemon's span tree, in traced phases
}

// opTimeout bounds one request end to end, retries and polling included.
const opTimeout = 60 * time.Second

// do runs o to completion: submit (following 429 Retry-After and resending
// the full graph when a delta's base is gone), poll until the job is done,
// then fetch the job and its assignment. base is the job id a delta
// applies to.
func (c *client) do(ctx context.Context, o *op, base, traceID string) (*outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	out := &outcome{op: o, trace: -1}
	root := c.rec.start(traceID, "request", -1)
	out.trace = root
	defer c.rec.end(root)
	start := time.Now()

	body, binary, path := o.body, o.binary, submitURL(o, base)
	if o.base != nil && base == "" {
		// No job of the base version is known: send the full graph.
		body, binary, path = o.ver.fullBody(), o.ver.binary, submitURL(o, "")
		out.resubmit = true
	}
	var sub submitResponse
	for {
		sp := c.rec.start(traceID, "submit", root)
		code, hdr, err := c.post(ctx, path, body, binary, &sub)
		c.rec.end(sp)
		if err != nil {
			return nil, err
		}
		switch {
		case code == http.StatusOK || code == http.StatusAccepted:
		case code == http.StatusTooManyRequests:
			out.rejected++
			wait := time.Second
			if s, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && s >= 0 {
				wait = time.Duration(s) * time.Second
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return nil, fmt.Errorf("retrying after 429: %w", err)
			}
			continue
		case o.base != nil && !out.resubmit && (code == http.StatusNotFound || code == http.StatusGone):
			// The base job or graph left the daemon's caches: resubmit the
			// full graph the delta would have produced.
			body, binary, path = o.ver.fullBody(), o.ver.binary, submitURL(o, "")
			out.resubmit = true
			continue
		default:
			return nil, fmt.Errorf("submit: HTTP %d: %s", code, sub.Error)
		}
		break
	}

	var job jobView
	for {
		sp := c.rec.start(traceID, "poll", root)
		err := c.getJSON(ctx, "/v1/jobs/"+sub.JobID, &job)
		c.rec.end(sp)
		if err != nil {
			return nil, err
		}
		if job.Status == "done" || job.Status == "failed" {
			break
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return nil, fmt.Errorf("polling %s: %w", sub.JobID, err)
		}
	}
	if job.Status != "done" {
		return nil, fmt.Errorf("job %s failed: %s", job.ID, job.Error)
	}
	if job.Result == nil {
		return nil, fmt.Errorf("job %s is done without a result", job.ID)
	}
	sp := c.rec.start(traceID, "fetch-assignment", root)
	asgn, err := c.get(ctx, "/v1/jobs/"+job.ID+"/assignment")
	c.rec.end(sp)
	if err != nil {
		return nil, err
	}
	out.latency = time.Since(start)
	out.job, out.assignment = job, asgn
	return out, nil
}

func (c *client) post(ctx context.Context, path string, body []byte, binary bool, v any) (int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	ct := "text/plain"
	if binary {
		ct = wire.ContentType
	}
	req.Header.Set("Content-Type", ct)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return 0, nil, fmt.Errorf("submit: HTTP %d: decoding response: %w", resp.StatusCode, err)
	}
	return resp.StatusCode, resp.Header, nil
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (c *client) getJSON(ctx context.Context, path string, v any) error {
	b, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
