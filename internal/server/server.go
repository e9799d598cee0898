// Package server implements partitioning-as-a-service: a long-running HTTP
// daemon (cmd/mdbgpd) wrapping the mdbgp engine with a bounded asynchronous
// job queue, a configurable worker pool, and a content-addressed LRU result
// cache.
//
// The API is deliberately small:
//
//	POST /v1/partition            submit an edge list (text body) + options
//	                              (query params, including ?engine= to pick
//	                              any registered solver); returns a job id.
//	                              200 on a cache hit, 202 when queued, 429
//	                              when the queue is saturated, 400 on an
//	                              unknown engine, 422 when the named engine
//	                              cannot balance an explicit dims= request.
//	POST /v1/partition?base=...   submit an edge DELTA ("+u v"/"-u v" lines)
//	                              against a previous job id or graph hash;
//	                              the server materializes the updated graph
//	                              from its base-graph cache and warm-starts
//	                              GD from the base's cached solution (cold
//	                              solve when the solution was evicted or the
//	                              churn exceeds Config.MaxChurn).
//	GET  /v1/jobs/{id}            poll a job: status, quality metrics, timings
//	GET  /v1/jobs/{id}/assignment the partition as "vertex part" text lines
//	GET  /v1/jobs/{id}/trace      the request's span tree as JSON: ingest,
//	                              cache lookup, queue wait, and the solve's
//	                              internal phases (coarsening levels, per-
//	                              bisection GD with convergence telemetry,
//	                              rounding)
//	GET  /healthz                 liveness + queue summary (503 only once the
//	                              server is closed)
//	GET  /readyz                  readiness: 503 while draining for shutdown,
//	                              so load balancers stop routing before the
//	                              listener goes away
//	GET  /metrics                 Prometheus text exposition
//
// Requests are content-addressed: the body is parsed into the canonical CSR
// and hashed, options are canonicalized and fingerprinted
// (mdbgp.Options.Fingerprint), and the pair keys the result cache. A
// byte-identical re-upload of a retained graph skips the parse and the hash
// (see reuseUpload). Repeat and near-duplicate traffic — reordered edge
// lists, duplicate edges, explicitly spelled-out defaults, any Parallelism —
// is served from the cache without re-solving; identical requests already
// in flight are coalesced onto the same job. Results are deterministic for a
// fixed seed at any worker count, so cached and freshly solved responses are
// byte-identical.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdbgp"
	"mdbgp/internal/cachestore"
	"mdbgp/internal/obs"
	"mdbgp/internal/prep"
	"mdbgp/internal/wire"
)

// Config tunes the daemon. The zero value serves with sensible defaults.
type Config struct {
	// Workers is the number of goroutines draining the job queue, i.e. how
	// many partitions are solved concurrently (0 = 2).
	Workers int
	// QueueDepth bounds the pending-job queue; submissions beyond it get
	// 429 (0 = 64).
	QueueDepth int
	// CacheEntries is the LRU result-cache capacity in entries (0 = 256,
	// negative disables caching).
	CacheEntries int
	// MaxBodyBytes caps the request body (0 = 256 MiB).
	MaxBodyBytes int64
	// MaxVertexID rejects edge lists mentioning ids above this. The graph
	// is allocated densely over [0, max id], so a single line naming a huge
	// id costs memory proportional to the id regardless of body size; the
	// default (0) is 16M ids to keep one request's allocation bounded.
	// Negative lifts the bound to the representation limit (int32 ids).
	MaxVertexID int
	// Parallelism is the solver worker count per job (0 = GOMAXPROCS).
	// Results are bit-identical at any value, so it is a pure throughput
	// knob and is excluded from cache keys.
	Parallelism int
	// RetainJobs bounds the completed-job history kept for polling (0 =
	// 1024).
	RetainJobs int
	// MaxWait caps how long a ?wait=true submission blocks before falling
	// back to the async response (0 = 30s).
	MaxWait time.Duration
	// GraphCacheEntries bounds the base-graph cache delta submissions
	// (?base=...) resolve against and byte-identical re-uploads are served
	// from (0 = 64, negative disables — every delta then fails with
	// "resubmit the full graph"). Graphs are much larger than results, hence
	// the separate, smaller bound.
	GraphCacheEntries int
	// MaxChurn is the effective edge-churn fraction (symmetric difference /
	// base edges) above which a delta submission is solved cold even when a
	// warm base solution is available: past it, the prior solution stops
	// being a useful prior and warm-starting only biases the solve (0 =
	// 0.25, negative forces every delta cold).
	MaxChurn float64
	// MaxChainDepth bounds how many warm hops a delta-of-a-delta chain may
	// accumulate before the server forces a cold re-solve: each warm start
	// re-polishes the previous solution, and past a depth the accumulated
	// drift deserves a fresh solve more than it deserves another polish.
	// A cold solve (forced or otherwise) resets the chain to depth zero
	// (0 = 8, negative disables the limit).
	MaxChainDepth int
	// PrepCacheBytes budgets the prep-artifact cache: coarsening hierarchies
	// built for one solve are retained (keyed by graph hash, engine and
	// parameters) and injected into later solves of the same graph, which
	// skip the rebuild. Injection never changes
	// results — a cached-prep solve is byte-identical to a rebuilt-prep
	// solve, and the artifacts stay out of option fingerprints — so this is
	// purely a latency/CPU-for-memory trade (0 = 256 MiB, negative
	// disables).
	PrepCacheBytes int64
	// Logger receives structured request/job logs (nil = discard). Every
	// record carries the job id, so a log line joins against the polling API
	// and the trace endpoint.
	Logger *slog.Logger
	// SlowRequest is the solve-duration threshold above which a completed job
	// is logged at Warn instead of Info (0 = 2s, negative disables slow-solve
	// warnings).
	SlowRequest time.Duration
	// DisableTracing turns off the per-request span trees (and with them
	// GET /v1/jobs/{id}/trace). Tracing is cheap by construction — the solver
	// samples convergence in O(n) on a fixed stride — so it defaults to on;
	// the traced and untraced configurations share cache entries either way
	// because the observer is excluded from option fingerprints.
	DisableTracing bool
	// CacheDir, when non-empty, enables the durable disk tier of the result
	// cache (internal/cachestore): completed results spill write-behind to
	// one checksummed file per cache key, misses read through to disk lazily,
	// and GET /v1/cache/{key} serves entries to warming peers. Results are
	// deterministic and keys carry EngineVersion, so entries survive restarts
	// and algorithm upgrades invalidate cleanly. Empty disables the tier
	// (memory-only, the previous behavior).
	CacheDir string
	// TrustHashHeader accepts the X-Mdbgp-Graph-Hash request header as the
	// canonical graph hash on full submissions, skipping the server's own
	// hash pass — the routing tier (cmd/mdbgp-router) computes the hash once
	// at the edge to pick the replica and forwards it. Enable ONLY behind a
	// trusted router: a lying client could poison the content-addressed cache.
	TrustHashHeader bool
	// MaxResidentEdges is the largest graph (in undirected edges) the server
	// will materialize as an in-memory CSR (0 = unlimited). Binary wire-format
	// submissions above the budget take the out-of-core path: the stream is
	// validated and spilled to SpillDir, then solved by a streaming engine
	// that re-reads the spill once per pass. Text submissions above the budget
	// are rejected with 413 and pointed at the binary codec (the text parser
	// cannot bound memory without first materializing the graph).
	MaxResidentEdges int64
	// SpillDir is where out-of-core submissions park their validated wire
	// streams between ingest and solve ("" = os.TempDir()). Spills are
	// transient — one job each, removed when the job finishes — but the
	// directory should have room for MaxBodyBytes-sized files.
	SpillDir string
}

// GraphHashHeader is the request header the routing tier uses to forward the
// canonical graph hash it computed at the edge (see Config.TrustHashHeader).
const GraphHashHeader = "X-Mdbgp-Graph-Hash"

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.MaxVertexID == 0 {
		c.MaxVertexID = 1 << 24
	}
	// Negative means "representation limit": pass 0 through to the reader,
	// which clamps to graph.MaxVertexID.
	if c.MaxVertexID < 0 {
		c.MaxVertexID = 0
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 30 * time.Second
	}
	if c.GraphCacheEntries == 0 {
		c.GraphCacheEntries = 64
	}
	if c.MaxChurn == 0 {
		c.MaxChurn = 0.25
	}
	if c.MaxChainDepth == 0 {
		c.MaxChainDepth = 8
	}
	if c.PrepCacheBytes == 0 {
		c.PrepCacheBytes = 256 << 20
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = 2 * time.Second
	}
	if c.SpillDir == "" {
		c.SpillDir = os.TempDir()
	}
	return c
}

// Server is the partitioning service. Create with New, serve via ServeHTTP
// (it implements http.Handler), stop with Close.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	queue    chan *job
	quit     chan struct{}
	wg       sync.WaitGroup
	down     atomic.Bool
	draining atomic.Bool // readiness only: /readyz says 503, everything still serves
	log      *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job // content key -> queued/running job, for coalescing
	// doneOrder is the completed-job retention window, oldest first, with a
	// consumed head prefix: retire appends at the tail and advances doneHead
	// past evicted ids instead of re-slicing (doneOrder[1:] would pin an
	// ever-growing backing array under sustained traffic), compacting the
	// array in place once the dead prefix dominates.
	doneOrder []string
	doneHead  int

	cache  *resultCache
	graphs *graphCache
	preps  *prep.Cache       // prepared coarsening hierarchies, keyed per graph
	disk   *cachestore.Store // durable tier; nil when Config.CacheDir is empty
	met    metrics
	seq    atomic.Int64
	start  time.Time

	// solve replaces defaultSolve when non-nil — a test seam for
	// deterministic backpressure/coalescing tests. Set before startWorkers.
	solve func(g *mdbgp.Graph, opts mdbgp.Options) (*mdbgp.Result, error)
}

// New starts a server with cfg's worker pool running.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.startWorkers()
	return s
}

func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		quit:     make(chan struct{}),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		cache:    newResultCache(cfg.CacheEntries),
		graphs:   newGraphCache(cfg.GraphCacheEntries),
		preps:    prep.New(cfg.PrepCacheBytes),
		start:    time.Now(),
		log:      cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if cfg.CacheDir != "" {
		disk, err := cachestore.Open(cfg.CacheDir)
		if err != nil {
			// A broken cache dir degrades to memory-only serving rather than
			// refusing to boot: durability is an optimization, correctness is
			// not at stake. The daemon front end validates the flag up front
			// so operators still get a fail-fast on typos.
			s.log.Error("disk cache tier disabled", slog.String("dir", cfg.CacheDir), slog.String("error", err.Error()))
		} else {
			s.disk = disk
		}
	}
	s.met.init()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/partition", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/assignment", s.handleAssignment)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/cache", s.handleCacheIndex)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheEntry)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// SetDraining flips the readiness signal: while draining, GET /readyz
// answers 503 so load balancers pull the instance, but submissions, polls and
// scrapes keep working — the daemon uses it to bleed traffic before the
// listener shuts down.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) startWorkers() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Config returns the effective configuration (defaults applied).
func (s *Server) Config() Config { return s.cfg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.httpRequests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Close stops the worker pool (in-flight solves complete) and fails any
// still-queued jobs so their waiters are released. Subsequent submissions
// get 503.
func (s *Server) Close() {
	if s.down.Swap(true) {
		return
	}
	// Barrier: every enqueue happens under s.mu with a down re-check, so
	// once this lock is acquired no further job can enter the queue — the
	// drain below cannot race with a late submission.
	s.mu.Lock()
	s.mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	close(s.quit)
	s.wg.Wait()
drain:
	for {
		select {
		case j := <-s.queue:
			s.finishJob(j, nil, errors.New("server shutting down"))
		default:
			break drain
		}
	}
	// After the drain no worker can spill another result; flush the
	// write-behind queue so everything solved before shutdown survives it.
	if s.disk != nil {
		s.disk.Close()
	}
}

// submitRequest is the parsed form of POST /v1/partition.
type submitRequest struct {
	opts         mdbgp.Options
	engine       mdbgp.EngineInfo // resolved capabilities of opts.Engine
	dims         []mdbgp.Weight
	dimNames     string
	dimsExplicit bool // the client passed dims= rather than taking the default
	wait         bool
	base         string // job id or graph hash; non-empty marks a delta submission
}

var allowedParams = map[string]bool{
	"k": true, "eps": true, "dims": true, "iters": true, "step": true,
	"projection": true, "seed": true, "engine": true,
	"coarsento": true, "clustersize": true, "refineiters": true,
	"wait": true, "base": true,
}

// maxIterBudget bounds iters= and refineiters=. Solve time grows linearly
// with the budget while the step length shrinks as 1/iters, so fewer
// vertices fix and the loop rarely ends early: on a 2000-vertex, 10k-edge
// k=8 solve, iters=10000 takes about a second and iters=100000 about ten.
// The bound is 100x the paper's default of 100 iterations.
const maxIterBudget = 10000

func parseSubmit(r *http.Request) (submitRequest, error) {
	q := r.URL.Query()
	for k := range q {
		if !allowedParams[k] {
			return submitRequest{}, fmt.Errorf("unknown query parameter %q", k)
		}
	}
	var req submitRequest
	intParam := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s=%q: %v", name, v, err)
			}
			*dst = n
		}
		return nil
	}
	if err := intParam("k", &req.opts.K); err != nil {
		return req, err
	}
	if req.opts.K < 0 || req.opts.K > 1<<20 {
		return req, fmt.Errorf("k=%d out of range", req.opts.K)
	}
	if v := q.Get("eps"); v != "" {
		// eps=0 is rejected rather than accepted-and-ignored: the engine
		// treats Epsilon<=0 as "use the 5% default", which is not what a
		// client asking for exact balance means.
		eps, err := strconv.ParseFloat(v, 64)
		if err != nil || eps <= 0 || eps >= 1 {
			return req, fmt.Errorf("bad eps=%q (want a float in (0,1))", v)
		}
		req.opts.Epsilon = eps
	}
	if err := intParam("iters", &req.opts.Iterations); err != nil {
		return req, err
	}
	if err := checkIterBudget("iters", req.opts.Iterations); err != nil {
		return req, err
	}
	if v := q.Get("step"); v != "" {
		st, err := strconv.ParseFloat(v, 64)
		if err != nil || st <= 0 {
			return req, fmt.Errorf("bad step=%q", v)
		}
		req.opts.StepLength = st
	}
	req.opts.Projection = q.Get("projection")
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, fmt.Errorf("bad seed=%q: %v", v, err)
		}
		req.opts.Seed = seed
	}
	boolParam := func(name string, dst *bool) error {
		if v := q.Get(name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return fmt.Errorf("bad %s=%q: %v", name, v, err)
			}
			*dst = b
		}
		return nil
	}
	req.opts.Engine = q.Get("engine")
	eng, err := mdbgp.LookupEngine(req.opts.Canonical().Engine)
	if err != nil {
		return req, err // unknown engine: the error lists the known names
	}
	req.engine = eng.Info()
	if err := intParam("coarsento", &req.opts.CoarsenTo); err != nil {
		return req, err
	}
	if err := intParam("clustersize", &req.opts.ClusterSize); err != nil {
		return req, err
	}
	if err := intParam("refineiters", &req.opts.RefineIterations); err != nil {
		return req, err
	}
	if err := checkIterBudget("refineiters", req.opts.RefineIterations); err != nil {
		return req, err
	}
	if err := boolParam("wait", &req.wait); err != nil {
		return req, err
	}
	req.base = q.Get("base")
	req.dimsExplicit = q.Get("dims") != ""
	dims, names, err := mdbgp.ParseWeightDims(q.Get("dims"))
	if err != nil {
		return req, err
	}
	req.dims, req.dimNames = dims, names
	// Validate the projection name at submit time so typos fail fast with a
	// 400 instead of a failed job.
	if err := mdbgp.ValidateProjection(req.opts.Projection); err != nil {
		return req, err
	}
	if req.opts.Projection == "nested" {
		return req, fmt.Errorf("projection=nested is not served: its cost grows steeply with the number of balance dimensions (a 6000-vertex k=8 solve takes seconds at two dims and minutes at three), so one request could hold a solver worker for minutes; it stays available in the library and CLI as a reference method")
	}
	return req, nil
}

// checkIterBudget refuses an iteration budget outside [0, maxIterBudget];
// 0 keeps the default.
func checkIterBudget(name string, v int) error {
	if v < 0 || v > maxIterBudget {
		return fmt.Errorf("%s=%d out of range (want 0 to %d; 0 selects the default): solve time grows linearly with the iteration budget, so one request could hold a solver worker for hours", name, v, maxIterBudget)
	}
	return nil
}

// cacheKey is the content address of a request: the engine generation (so a
// persistent or shared cache can never serve results across algorithm
// changes), the canonical graph hash, the balance dimensions (order matters
// — projections visit them in order), and the canonicalized options
// fingerprint. The fingerprint covers the warm assignment when one is set:
// a warm-started solve follows a different trajectory than a cold one, so
// the two must never share an entry.
func cacheKey(graphHash, dimNames string, opts mdbgp.Options) string {
	return mdbgp.EngineVersion + ":" + graphHash + ":" + dimNames + ":" + opts.Fingerprint()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.down.Load() {
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	req, err := parseSubmit(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Capability gate: an engine without weighted support balances a fixed
	// built-in dimension and cannot honor an explicit dims= request — that
	// is a semantic mismatch (422), not a syntax error. Requests that merely
	// take the default dims still work: the engine solves on its own terms
	// and the job reports how the default dimensions came out.
	if req.dimsExplicit && !req.engine.Weighted {
		httpError(w, http.StatusUnprocessableEntity, fmt.Sprintf(
			"engine %q cannot balance requested dims=%s (it balances a fixed built-in dimension); drop dims or pick a weighted engine",
			req.engine.Name, req.dimNames))
		return
	}
	// Codec negotiation: Content-Type application/x-mdbgp-csr selects the
	// binary wire format (docs/WIRE_FORMAT.md); anything else is the text
	// edge-list codec, the historical default.
	binary := wire.IsContentType(r.Header.Get("Content-Type"))
	if req.base != "" {
		if binary {
			// Deltas are line-oriented "+u v"/"-u v" edits; the wire format
			// carries whole adjacency structures. Mixing them has no defined
			// semantics, so fail loudly rather than misparse.
			httpError(w, http.StatusBadRequest, "binary edge deltas are not supported: ?base= takes the text \"+u v\"/\"-u v\" codec only")
			return
		}
		s.handleDeltaSubmit(w, r, req)
		return
	}

	root := s.newRequestTrace()
	ingSpan := root.Start("ingest")
	ingestStart := time.Now()
	var ing *ingestInfo
	if binary {
		if ing = s.ingestBinary(w, r, &req); ing == nil {
			root.End() // error response already written; leave no dangling span
			return
		}
	} else if ing = s.ingestText(w, r); ing == nil {
		root.End()
		return
	}
	s.met.recordIngest(time.Since(ingestStart))
	if ingSpan != nil {
		ingSpan.SetAttr("n", ing.n)
		ingSpan.SetAttr("m", ing.m)
		ingSpan.SetAttr("mode", ing.mode)
		ingSpan.SetAttr("reused", ing.reused)
		ingSpan.End()
	}
	s.dispatch(w, r, req, ing, req.opts.Canonical(), nil, root)
}

// ingestText is the text edge-list codec: read the body, and unless it is a
// byte-identical re-upload of a retained graph (see reuseUpload), parse its
// "u v" lines into the canonical CSR builder. On error it writes the HTTP
// response and returns nil. The resident-edge budget applies here too, but
// as policy rather than protection — the text parser must materialize the
// graph before it knows the edge count, so memory during parse is bounded
// by MaxBodyBytes, not by the budget. Clients with genuinely large graphs
// are pointed at the binary codec, whose header announces the size up
// front.
func (s *Server) ingestText(w http.ResponseWriter, r *http.Request) *ingestInfo {
	body, ok := s.readUpload(w, r, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), nil)
	if !ok {
		return nil
	}
	d := digestUpload(codecText, body)
	if ing := s.reuseUpload(r, d); ing != nil {
		return ing
	}
	b := mdbgp.NewBuilder(0)
	if err := mdbgp.ReadEdgeListInto(b, bytes.NewReader(body), s.cfg.MaxVertexID); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	g := b.Build()
	if g.N() == 0 || g.M() == 0 {
		httpError(w, http.StatusBadRequest, "empty graph: body must contain at least one 'u v' edge line")
		return nil
	}
	if s.cfg.MaxResidentEdges > 0 && g.M() > s.cfg.MaxResidentEdges {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf(
			"graph has %d edges, above the resident budget of %d; submit in binary wire format (Content-Type: %s) for out-of-core solving",
			g.M(), s.cfg.MaxResidentEdges, wire.ContentType))
		return nil
	}
	return s.residentIngest(r, g, d)
}

// newRequestTrace opens the root span of one submission, or nil (a no-op
// observer all the way down) when tracing is off.
func (s *Server) newRequestTrace() *obs.Span {
	if s.cfg.DisableTracing {
		return nil
	}
	return obs.NewTrace("request")
}

// handleDeltaSubmit is the incremental path: the body is an edge delta
// against ?base= (a retained job id or a canonical graph hash), the target
// graph is materialized from the base-graph cache, and the solve warm-starts
// from the base's cached solution when one is available and the churn is
// within bounds — otherwise it degrades to a cold solve of the materialized
// graph. Only a missing base GRAPH is an error (there is nothing to apply
// the delta to); a missing base SOLUTION never is.
func (s *Server) handleDeltaSubmit(w http.ResponseWriter, r *http.Request, req submitRequest) {
	root := s.newRequestTrace()
	ingSpan := root.Start("ingest")
	ingestStart := time.Now()
	s.met.deltaSubmitted.Add(1)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	d, err := mdbgp.ParseEdgeDelta(body, s.cfg.MaxVertexID)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	baseHash, baseJob := s.resolveBase(req.base)
	if baseHash == "" {
		s.met.baseMisses.Add(1)
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown base %q: not a retained job id or a known graph hash; resubmit the full graph", req.base))
		return
	}
	baseG, ok := s.graphs.get(baseHash)
	if !ok {
		s.met.baseMisses.Add(1)
		httpError(w, http.StatusGone, fmt.Sprintf("base graph %s is no longer cached; resubmit the full graph", baseHash[:8]))
		return
	}
	g, stats := mdbgp.ApplyEdgeDelta(baseG, d)
	if g.N() == 0 || g.M() == 0 {
		httpError(w, http.StatusBadRequest, "delta leaves the graph empty")
		return
	}

	opts := req.opts
	dv := &deltaView{
		Base: baseHash, Churn: stats.Churn(baseG.M()),
		Added: stats.AddedNew, Removed: stats.RemovedExisting,
		NewVertices: stats.NewVertices, Mode: "cold",
	}
	// Chain depth: warm hops accumulated since the last cold solve of this
	// lineage. A base resolved by bare graph hash has no job metadata and
	// counts as depth 0.
	baseDepth := 0
	if baseJob != nil && baseJob.delta != nil {
		baseDepth = baseJob.delta.ChainDepth
	}
	switch {
	case !req.engine.WarmStart:
		// Capability-degraded, not an error: the delta still names a valid
		// target graph, the engine just cannot use the prior solution.
		dv.ColdReason = "engine lacks warm-start capability"
	case dv.Churn > s.cfg.MaxChurn:
		dv.ColdReason = "churn above threshold"
	case s.cfg.MaxChainDepth > 0 && baseDepth+1 > s.cfg.MaxChainDepth:
		// Past the depth limit the accumulated warm-start drift deserves a
		// fresh solve; going cold also resets the chain to depth 0, so the
		// NEXT delta of this lineage warm-starts again.
		dv.ColdReason = coldReasonChainDepth
	default:
		if warm := s.resolveWarm(baseHash, baseJob, req); warm != nil {
			// Validate the prior assignment BEFORE dispatch: a part id
			// outside [0, K) (a base solved under a different K, or a
			// corrupted retained result) is a client-visible 400 here, not a
			// failed job — and certainly not a 500.
			if err := mdbgp.ValidateWarmAssignment(warm, g.N(), req.opts.Canonical().K); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("base %q is not a usable warm start: %v", req.base, err))
				return
			}
			opts.WarmAssignment = warm
			dv.Mode = "warm"
			dv.ChainDepth = baseDepth + 1
		} else {
			dv.ColdReason = "base solution not cached"
		}
	}
	hash := g.HashString() // hashing is part of the ingest cost
	s.met.recordIngest(time.Since(ingestStart))
	if ingSpan != nil {
		ingSpan.SetAttr("n", g.N())
		ingSpan.SetAttr("m", g.M())
		ingSpan.SetAttr("delta_mode", dv.Mode)
		ingSpan.End()
	}
	s.dispatch(w, r, req, &ingestInfo{g: g, n: g.N(), m: g.M(), hash: hash, mode: ingestModeResident}, opts.Canonical(), dv, root)
}

// resolveBase maps ?base= to a canonical graph hash: a retained job id
// (preferred — it survives graph-hash ignorance on the client) or a literal
// hash string.
func (s *Server) resolveBase(base string) (string, *job) {
	s.mu.Lock()
	j := s.jobs[base]
	s.mu.Unlock()
	if j != nil {
		return j.graphHash, j
	}
	if h := normalizeHash(base); h != "" {
		return h, nil
	}
	return "", nil
}

// normalizeHash validates a client-supplied canonical graph hash, folding
// uppercase hex (a legitimate spelling of the same hash) to the lowercase form
// the server uses internally. Anything that is not 64 hex characters maps to
// "".
func normalizeHash(h string) string {
	if len(h) != 64 {
		return ""
	}
	h = strings.ToLower(h)
	if strings.Trim(h, "0123456789abcdef") != "" {
		return ""
	}
	return h
}

// resolveWarm finds a prior solution of the base graph to warm-start from:
// first the result cache under the delta request's own options (a base
// solved cold with the same configuration), then — for chained deltas,
// whose base result is keyed with its own warm fingerprint — the base job's
// retained result, provided its K matches.
// The returned slice is always a private copy: WarmAssignment travels into
// the solver's mutable working state, and handing out the cached slice by
// reference would let one request's solve scribble over another's cached
// (and supposedly immutable) result.
func (s *Server) resolveWarm(baseHash string, baseJob *job, req submitRequest) []int32 {
	if res, ok := s.lookupResult(cacheKey(baseHash, req.dimNames, req.opts.Canonical())); ok {
		return cloneParts(res.Assignment.Parts)
	}
	if baseJob != nil {
		if v := baseJob.view(); v.Status == StatusDone && v.Res != nil &&
			v.Res.Assignment.K == req.opts.Canonical().K {
			return cloneParts(v.Res.Assignment.Parts)
		}
	}
	return nil
}

// cloneParts copies an assignment out of cache ownership before a caller may
// mutate it.
func cloneParts(parts []int32) []int32 {
	return append([]int32(nil), parts...)
}

// coldReasonChainDepth marks a delta solve forced cold by the warm-chain
// depth limit — the reason countDelta's reset counter keys on.
const coldReasonChainDepth = "chain depth limit"

// countDelta records a delta submission's warm/cold outcome. It runs only
// on the dispatch paths that actually serve the request (cache hit,
// coalesce, enqueue) — a 429 rejection must not move the warm-rate needle,
// nor the chain-reset counter.
func (s *Server) countDelta(dv *deltaView) {
	if dv == nil {
		return
	}
	if dv.Mode == "warm" {
		s.met.deltaWarm.Add(1)
		return
	}
	s.met.deltaCold.Add(1)
	if dv.ColdReason == coldReasonChainDepth {
		s.met.deltaChainReset.Add(1)
	}
}

// dispatch runs the shared submit tail for full and delta submissions:
// content addressing, the base-graph cache, the result-cache fast path,
// coalescing, and the bounded enqueue.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, req submitRequest, ing *ingestInfo, opts mdbgp.Options, dv *deltaView, root *obs.Span) {
	key := cacheKey(ing.hash, req.dimNames, opts)
	if ing.mode == ingestModeOOC {
		// The out-of-core solve streams vertices in natural order while the
		// in-core fennel engine visits a seeded permutation — same graph, same
		// options, different (both valid) results. A distinct key suffix keeps
		// the two from ever serving each other's cache entries.
		key += ":ooc"
	} else {
		// Every materialized graph becomes a warm-start base for future deltas
		// (including delta-produced graphs — that is what makes chains work).
		// Out-of-core graphs never materialize, so they never become bases.
		// The cache also canonicalizes: a repeat submission of the same graph
		// bytes proceeds with the RETAINED instance, so prep artifacts keyed
		// by pointer identity survive resubmission. The upload's digest goes
		// on that entry, so the next byte-identical upload skips ingest.
		canon, ev := s.graphs.getOrPut(ing.hash, ing.g)
		ing.g = canon
		if ev > 0 {
			s.met.graphEvictions.Add(int64(ev))
		}
		if ing.body != (bodyDigest{}) {
			s.graphs.recordBody(ing.hash, canon, ing.body)
		}
	}

	lookSpan := root.Start("cache-lookup")
	res, hit := s.lookupResult(key)
	if lookSpan != nil {
		lookSpan.SetAttr("hit", hit)
		lookSpan.End()
	}

	// Cache hit: materialize a completed job so the polling endpoints work
	// uniformly, and answer immediately.
	if hit {
		ing.spill.remove() // the cached result serves; the spill has no consumer
		s.met.jobsSubmitted.Add(1)
		s.met.recordEngineSubmit(opts.Engine)
		s.met.cacheHits.Add(1)
		s.countDelta(dv)
		root.End()
		j := &job{
			id: s.newJobID(key), key: key, graphHash: ing.hash, engine: opts.Engine, dims: req.dims,
			done: make(chan struct{}), status: StatusDone, cache: "hit",
			n: ing.n, m: ing.m, delta: dv, submitted: time.Now(), ingestMode: ing.mode,
			started: time.Now(), finished: time.Now(), res: res, trace: root,
		}
		close(j.done)
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.met.jobsCompleted.Add(1)
		s.retire(j)
		s.respondSubmit(w, j, http.StatusOK, nil)
		return
	}

	// Coalesce-or-enqueue must be atomic with respect to the inflight map:
	// the enqueue happens under the same lock as the coalesce check, so a
	// rejected submission can never have been observed (and attached to) by
	// a concurrent identical request, and Close's drain barrier (which takes
	// this lock after setting down) can never miss a late enqueue.
	s.mu.Lock()
	if s.down.Load() {
		s.mu.Unlock()
		ing.spill.remove()
		root.End() // the request dies here; leave no dangling span
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if prior, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		ing.spill.remove() // the prior job's spill (or graph) serves both
		s.met.jobsSubmitted.Add(1)
		s.met.recordEngineSubmit(opts.Engine)
		s.met.cacheMisses.Add(1)
		s.met.jobsCoalesced.Add(1)
		s.countDelta(dv)
		// This submission rides the prior job's trace; its own root span ends
		// now so the snapshot never shows a request still "running".
		root.End()
		s.waitIfRequested(req, r, prior)
		s.respondSubmit(w, prior, http.StatusAccepted, dv)
		return
	}
	j := &job{
		id: s.newJobID(key), key: key, graphHash: ing.hash, opts: opts, engine: opts.Engine,
		dims: req.dims, dimNames: req.dimNames,
		done: make(chan struct{}), status: StatusQueued, cache: "miss",
		n: ing.n, m: ing.m, delta: dv, submitted: time.Now(), g: ing.g,
		ingestMode: ing.mode, spill: ing.spill,
		trace: root, queueSpan: root.Start("queue-wait"),
	}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.inflight[key] = j
	default:
		// Saturated: the job was never published anywhere, so rejection
		// leaves no trace beyond its counter — but the spans opened for it
		// must still be closed, or the rejected request's trace tree (and the
		// timers behind it) dangles open forever.
		s.mu.Unlock()
		ing.spill.remove()
		s.met.jobsRejected.Add(1)
		j.queueSpan.End()
		root.End()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "job queue is full; retry later")
		return
	}
	s.mu.Unlock()
	s.met.jobsSubmitted.Add(1)
	s.met.recordEngineSubmit(opts.Engine)
	s.met.cacheMisses.Add(1)
	s.countDelta(dv)
	s.waitIfRequested(req, r, j)
	s.respondSubmit(w, j, http.StatusAccepted, nil)
}

// waitIfRequested blocks a ?wait=true submission until the job finishes,
// bounded by MaxWait and the client disconnecting.
func (s *Server) waitIfRequested(req submitRequest, r *http.Request, j *job) {
	if !req.wait {
		return
	}
	// A stopped timer, not time.After: the After channel (and its runtime
	// timer) would live until MaxWait elapses even when the job finishes in
	// milliseconds — under load that is QueueDepth×MaxWait of dead timers.
	timer := time.NewTimer(s.cfg.MaxWait)
	defer timer.Stop()
	select {
	case <-j.done:
	case <-timer.C:
	case <-r.Context().Done():
	}
}

// respondSubmit writes the submit response: the job id plus enough state to
// decide whether to poll. dv carries the submission's own delta resolution
// when it differs from the job's — a delta submission coalesced onto an
// in-flight job (whose view has no delta) must still report its documented
// delta.mode/churn metadata.
func (s *Server) respondSubmit(w http.ResponseWriter, j *job, code int, dv *deltaView) {
	v := j.view()
	if v.Status == StatusDone || v.Status == StatusFailed {
		code = http.StatusOK
	}
	resp := map[string]any{
		"job_id":      v.ID,
		"status":      v.Status,
		"cache":       v.Cache,
		"key":         v.Key,
		"graph_hash":  v.GraphHash,
		"engine":      v.Engine,
		"queue_depth": len(s.queue),
	}
	if v.IngestMode != "" {
		resp["ingest_mode"] = v.IngestMode
	}
	if dv == nil {
		dv = v.Delta
	}
	if dv != nil {
		resp["delta"] = dv
	}
	writeJSON(w, code, resp)
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q (completed jobs are retained for the last %d)", id, s.cfg.RetainJobs))
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	v := j.view()
	resp := map[string]any{
		"id":           v.ID,
		"status":       v.Status,
		"cache":        v.Cache,
		"key":          v.Key,
		"graph_hash":   v.GraphHash,
		"engine":       v.Engine,
		"graph":        map[string]any{"n": v.N, "m": v.M},
		"submitted_at": v.Submitted.UTC().Format(time.RFC3339Nano),
	}
	if v.IngestMode != "" {
		resp["ingest_mode"] = v.IngestMode
	}
	if v.Delta != nil {
		resp["delta"] = v.Delta
	}
	if v.ErrMsg != "" {
		resp["error"] = v.ErrMsg
	}
	if !v.Finished.IsZero() {
		resp["total_ms"] = v.Finished.Sub(v.Submitted).Seconds() * 1e3
		if !v.Started.IsZero() {
			resp["solve_ms"] = v.Finished.Sub(v.Started).Seconds() * 1e3
		}
	}
	if v.Res != nil {
		resp["result"] = map[string]any{
			"k":             v.Res.Assignment.K,
			"edge_locality": v.Res.EdgeLocality,
			"cut_edges":     v.Res.CutEdges,
			"imbalances":    v.Res.Imbalances,
			"assignment":    fmt.Sprintf("/v1/jobs/%s/assignment", v.ID),
		}
	}
	if v.Conv != nil {
		resp["convergence"] = v.Conv
	}
	if j.trace != nil {
		resp["trace"] = fmt.Sprintf("/v1/jobs/%s/trace", v.ID)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace serves the request's span tree: names, nesting, microsecond
// timings and attributes, from ingest down to the solver's per-bisection GD
// spans. It works on running jobs too (a consistent point-in-time snapshot),
// which is exactly when an operator wants to see where a slow solve is.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	if j.trace == nil {
		httpError(w, http.StatusNotFound, "no trace for this job (server runs with tracing disabled)")
		return
	}
	writeJSON(w, http.StatusOK, j.trace.Snapshot())
}

// handleAssignment streams the partition as "vertex part" lines — the same
// format cmd/mdbgp writes — so clients (and the golden determinism tests)
// can compare results byte for byte.
func (s *Server) handleAssignment(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	v := j.view()
	switch v.Status {
	case StatusDone:
	case StatusFailed:
		httpError(w, http.StatusConflict, "job failed: "+v.ErrMsg)
		return
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusConflict, "job not finished; poll /v1/jobs/"+v.ID)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// A write error means the client went away; there is no one left to tell.
	_ = writeAssignment(w, v.Res.Assignment.Parts)
}

// writeAssignment writes one "vertex part" line per vertex, formatting each
// line straight into the buffered writer's free space.
func writeAssignment(w io.Writer, parts []int32) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for vertex, part := range parts {
		b := bw.AvailableBuffer()
		b = strconv.AppendInt(b, int64(vertex), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(part), 10)
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// handleHealthz is the LIVENESS probe: it only fails once the server has
// actually been closed. A draining server is still alive — restarting it
// because it stopped being ready would defeat the graceful drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.down.Load() {
		status, code = "shutting down", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"uptime_s":       time.Since(s.start).Seconds(),
		"workers":        s.cfg.Workers,
		"queue_depth":    len(s.queue),
		"queue_capacity": cap(s.queue),
		"jobs_running":   s.met.jobsRunning.Load(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
	})
}

// handleReadyz is the READINESS probe: 503 while the server is draining
// ahead of shutdown (SetDraining) or already down, 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	switch {
	case s.down.Load():
		status, code = "shutting down", http.StatusServiceUnavailable
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":      status,
		"queue_depth": len(s.queue),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}
