package server

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"mdbgp"
	"mdbgp/internal/obs"
)

// Status is the lifecycle state of a partition job.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// job is one partition request flowing through the queue. The graph is
// retained only until the job finishes (it lives on in the base-graph
// cache); results are shared with the result cache and must not be mutated.
type job struct {
	id        string
	key       string // content address: version + graph hash + dims + options fingerprint
	graphHash string // canonical CSR hash alone — what ?base= resolves to
	opts      mdbgp.Options
	engine    string // canonical engine name solving (or having solved) this job
	dims      []mdbgp.Weight
	dimNames  string     // canonical dims= spelling — part of prep-cache keys
	delta     *deltaView // non-nil for delta submissions; immutable

	// ingestMode records how the graph arrived ("resident" or "out-of-core");
	// spill is the disk-parked wire stream an out-of-core job solves from.
	// The job owns the spill from enqueue until finishJob removes it.
	ingestMode string
	spill      *spillFile

	// trace is the request's root span (nil when tracing is disabled) and
	// queueSpan its open queue-wait child. Both are set before the job is
	// published and never reassigned; Span itself is safe for concurrent
	// snapshot-while-recording.
	trace     *obs.Span
	queueSpan *obs.Span

	done chan struct{} // closed exactly once, when status becomes done/failed

	mu        sync.Mutex
	status    Status
	cache     string // "hit", "miss" or "pending" as reported at submit time
	errMsg    string
	n         int
	m         int64
	submitted time.Time
	started   time.Time
	finished  time.Time
	res       *mdbgp.Result
	g         *mdbgp.Graph
	conv      *convergenceView
}

// convergenceView summarizes the solver's convergence telemetry for the job
// JSON, aggregated over every GD run the solve performed (one per bisection
// of the recursive k-way split, plus the coarse and refinement solves of a
// multilevel V-cycle).
type convergenceView struct {
	// GDRuns is how many gradient-descent runs the solve performed.
	GDRuns int `json:"gd_runs"`
	// ItersTo90 is the worst (maximum) iterations-to-90%-of-final-locality
	// across all runs — how long the slowest bisection took to do 90% of its
	// useful work, in sampled iterations.
	ItersTo90 int `json:"iters_to_90"`
	// FinalLocality is the weakest (minimum) final sampled locality across
	// runs.
	FinalLocality float64 `json:"final_locality"`
}

// convergenceFromTrace walks a finished request trace and aggregates the gd
// spans' convergence attributes. Returns nil when there is nothing to report
// (tracing off, cache hit, or a non-GD engine).
func convergenceFromTrace(root *obs.Span) *convergenceView {
	if root == nil {
		return nil
	}
	var cv *convergenceView
	root.Snapshot().Walk(func(sp *obs.SpanView) {
		if sp.Name != "gd" {
			return
		}
		final, ok := sp.Float("final_locality")
		if !ok {
			return
		}
		to90, _ := sp.Float("iters_to_90")
		if cv == nil {
			cv = &convergenceView{GDRuns: 1, ItersTo90: int(to90), FinalLocality: final}
			return
		}
		cv.GDRuns++
		if int(to90) > cv.ItersTo90 {
			cv.ItersTo90 = int(to90)
		}
		if final < cv.FinalLocality {
			cv.FinalLocality = final
		}
	})
	return cv
}

// deltaView describes how a delta submission was resolved. It is fixed at
// submit time and shared read-only by the JSON renderers.
type deltaView struct {
	// Base is the canonical hash of the base graph the delta applied to.
	Base string `json:"base"`
	// Churn is the effective change fraction: symmetric-difference edges
	// over base edges.
	Churn float64 `json:"churn"`
	// Added and Removed count the effective edge insertions/deletions.
	Added   int64 `json:"added_edges"`
	Removed int64 `json:"removed_edges"`
	// NewVertices counts vertex ids introduced beyond the base's range.
	NewVertices int `json:"new_vertices"`
	// Mode is "warm" (the solve started from the base's cached solution) or
	// "cold".
	Mode string `json:"mode"`
	// ColdReason explains a cold solve: "churn above threshold", "base
	// solution not cached", "chain depth limit" or "engine lacks warm-start
	// capability".
	ColdReason string `json:"cold_reason,omitempty"`
	// ChainDepth counts warm hops since the last cold solve of this lineage:
	// 0 for cold solves, base depth + 1 for warm ones. Past
	// Config.MaxChainDepth the server forces a cold solve, resetting it.
	ChainDepth int `json:"chain_depth"`
}

// snapshot copies the mutable fields under the job lock for rendering.
type jobView struct {
	ID         string
	Key        string
	GraphHash  string
	Engine     string
	Status     Status
	Cache      string
	ErrMsg     string
	N          int
	M          int64
	IngestMode string
	Submitted  time.Time
	Started    time.Time
	Finished   time.Time
	Res        *mdbgp.Result
	Delta      *deltaView
	Conv       *convergenceView
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobView{
		ID: j.id, Key: j.key, GraphHash: j.graphHash, Engine: j.engine,
		Status: j.status, Cache: j.cache, ErrMsg: j.errMsg,
		N: j.n, M: j.m, IngestMode: j.ingestMode,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Res: j.res, Delta: j.delta, Conv: j.conv,
	}
}

// worker drains the queue until the server is closed.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

func (s *Server) runJob(j *job) {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.submitted)
	g, opts, dims := j.g, j.opts, j.dims
	j.mu.Unlock()
	j.queueSpan.End()
	s.met.recordQueueWait(queueWait)
	s.met.jobsRunning.Add(1)
	defer s.met.jobsRunning.Add(-1)

	solve := s.solve
	if solve == nil {
		solve = s.defaultSolve
	}
	solveSpan := j.trace.Start("solve")
	if solveSpan != nil {
		solveSpan.SetAttr("engine", j.engine)
		if j.spill != nil {
			solveSpan.SetAttr("ingest_mode", j.ingestMode)
		}
	}
	// The solver publishes its span tree under the solve span. Observer is
	// excluded from option fingerprints, so attaching it here cannot fork the
	// cache key the job was dispatched under.
	opts.Observer = solveSpan
	var err error
	if g != nil && j.spill == nil {
		// The balance vectors are resolved once, here, and reach both the
		// hierarchy build and the solve through Options.Weights.
		if opts.Weights, err = s.jobWeights(g, j.graphHash, dims, solveSpan); err == nil {
			// Prep amortization: reuse (or build and retain) the solve's
			// assignment-independent preprocessing. Like the observer, the
			// injected artifacts are excluded from fingerprints — a
			// cached-prep solve is byte-identical to a rebuilt-prep one.
			opts = s.attachPrep(g, j.graphHash, j.dimNames, opts, solveSpan)
		}
	}
	start := time.Now()
	var res *mdbgp.Result
	switch {
	case err != nil:
	case j.spill != nil:
		// Out-of-core: no materialized graph to hand the engine; stream the
		// spill instead. dims are the defaults by construction (ingestBinary
		// rejects explicit dims on this path).
		res, err = s.streamSolve(j.spill, j.n, j.m, opts)
	default:
		res, err = solve(g, opts)
	}
	elapsed := time.Since(start)
	solveSpan.End()
	s.met.recordEngineSolve(j.engine, elapsed)
	s.finishJob(j, res, err)
	s.logJob(j, queueWait, elapsed, err)
}

// logJob emits the structured per-job completion record, escalating to Warn
// when the solve blew the slow-request threshold.
func (s *Server) logJob(j *job, queueWait, elapsed time.Duration, err error) {
	attrs := []any{
		slog.String("job_id", j.id),
		slog.String("engine", j.engine),
		slog.Int("n", j.n),
		slog.Int64("m", j.m),
		slog.Duration("queue_wait", queueWait),
		slog.Duration("solve", elapsed),
	}
	if err != nil {
		s.log.Error("job failed", append(attrs, slog.String("error", err.Error()))...)
		return
	}
	if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
		s.log.Warn("slow solve", append(attrs, slog.Duration("threshold", s.cfg.SlowRequest))...)
		return
	}
	s.log.Info("job done", attrs...)
}

// jobWeights resolves a job's balance vectors under a "weights" span whose
// cached attribute says whether the graph cache already held the retained
// ones (see graphCache.weights).
func (s *Server) jobWeights(g *mdbgp.Graph, hash string, dims []mdbgp.Weight, parent *obs.Span) ([][]float64, error) {
	sp := parent.Start("weights")
	ws, cached, err := s.graphs.weights(hash, g, dims)
	sp.SetAttr("cached", cached)
	sp.End()
	return ws, err
}

// defaultSolve runs the engine on the job's resolved options; opts.Weights
// already holds the balance vectors.
func (s *Server) defaultSolve(g *mdbgp.Graph, opts mdbgp.Options) (*mdbgp.Result, error) {
	opts.Parallelism = s.cfg.Parallelism
	return mdbgp.Partition(g, opts)
}

// finishJob records the outcome, publishes to the cache, releases the graph
// and wakes any waiters. It is also used for cache-hit jobs (err == nil,
// res from the cache) and shutdown failures.
func (s *Server) finishJob(j *job, res *mdbgp.Result, err error) {
	if err == nil && res != nil && j.cacheable() {
		if ev := s.cache.put(j.key, res); ev > 0 {
			s.met.cacheEvictions.Add(int64(ev))
		}
		if s.disk != nil {
			// Write-behind: the durable tier persists off the request path.
			s.disk.Put(j.key, res)
		}
	}
	// End is idempotent, so the shutdown path (which skips runJob) closes the
	// queue-wait span here and the normal path is unaffected.
	j.queueSpan.End()
	j.trace.End()
	// The spill's one consumer (this job) is done with it — success or not.
	// remove is idempotent, so a shutdown race with dispatch cleanup is safe.
	j.spill.remove()
	conv := convergenceFromTrace(j.trace)
	j.mu.Lock()
	j.conv = conv
	j.finished = time.Now()
	j.g = nil // the graph is no longer needed here; the graph cache owns it
	// Release the warm assignment: it can be as large as the graph's vertex
	// set and the retained job history would otherwise pin RetainJobs of
	// them. It has already been folded into the content key.
	j.opts.WarmAssignment = nil
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
	} else {
		j.status = StatusDone
		j.res = res
	}
	j.mu.Unlock()
	close(j.done)
	if err != nil {
		s.met.jobsFailed.Add(1)
	} else {
		s.met.jobsCompleted.Add(1)
	}
	s.retire(j)
}

// cacheable reports whether the finished job should publish its result; a
// job created directly from a cache hit must not re-insert (put would just
// refresh recency, which get already did).
func (j *job) cacheable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cache != "hit"
}

// retire moves the job into the bounded completed-job history, evicting the
// oldest finished jobs beyond the retention cap so the store cannot grow
// without bound under sustained traffic.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, j.key)
	s.doneOrder = append(s.doneOrder, j.id)
	// Evict by advancing doneHead instead of re-slicing: doneOrder[1:] keeps
	// the full backing array reachable, so under sustained traffic the window
	// crawls forward through an allocation that only ever grows. Advancing an
	// index (and zeroing the slot so the id string is collectable) keeps the
	// same array in use; once the dead prefix outweighs the live window the
	// live ids are copied down and the prefix reclaimed, bounding the backing
	// array at ~2× the retention cap.
	for len(s.doneOrder)-s.doneHead > s.cfg.RetainJobs {
		delete(s.jobs, s.doneOrder[s.doneHead])
		s.doneOrder[s.doneHead] = ""
		s.doneHead++
	}
	if s.doneHead > len(s.doneOrder)-s.doneHead {
		n := copy(s.doneOrder, s.doneOrder[s.doneHead:])
		clear(s.doneOrder[n:])
		s.doneOrder = s.doneOrder[:n]
		s.doneHead = 0
	}
}

// newJobID derives a short, unique, content-flavored id: a sequence number
// plus the head of the content key.
func (s *Server) newJobID(key string) string {
	seq := s.seq.Add(1)
	tail := key
	if len(tail) > 8 {
		tail = tail[:8]
	}
	return fmt.Sprintf("j%d-%s", seq, tail)
}
