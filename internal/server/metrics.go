package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdbgp/internal/obs"
	"mdbgp/internal/prep"
)

// metrics holds the daemon's counters and latency histograms. Counter fields
// are atomics so the hot paths never take a lock; the per-engine maps are the
// one exception — engine labels are few and a solve takes milliseconds, so a
// mutex per completed solve is noise. Scrapes go through snapshot(), which
// gathers every subsystem once before any rendering happens, so a single
// exposition page is internally consistent (the per-engine series, the queue
// gauges and the cache gauges all describe the same instant instead of
// drifting apart while the page is written).
type metrics struct {
	httpRequests    atomic.Int64
	jobsSubmitted   atomic.Int64
	jobsCompleted   atomic.Int64
	jobsFailed      atomic.Int64
	jobsRejected    atomic.Int64 // 429s from a saturated queue
	jobsCoalesced   atomic.Int64 // submissions attached to an identical in-flight job
	jobsRunning     atomic.Int64
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	cacheEvictions  atomic.Int64
	deltaSubmitted  atomic.Int64 // delta (?base=) submissions received
	deltaWarm       atomic.Int64 // delta jobs dispatched with a warm start
	deltaCold       atomic.Int64 // delta jobs dispatched cold (churn, depth, capability or evicted solution)
	deltaChainReset atomic.Int64 // delta solves forced cold by the chain-depth limit
	baseMisses      atomic.Int64 // delta submissions whose base graph was unknown/evicted
	graphEvictions  atomic.Int64 // base graphs evicted from the graph cache
	warmFetched     atomic.Int64 // entries pulled from peers during cache warming
	warmErrors      atomic.Int64 // failed peer polls/fetches during cache warming
	binarySubmitted atomic.Int64 // submissions in the binary wire format
	ingestReused    atomic.Int64 // uploads served from the graph cache by body digest
	oocSubmitted    atomic.Int64 // submissions that took the out-of-core path
	spillBytes      atomic.Int64 // cumulative bytes written to spill files
	spillActive     atomic.Int64 // spill files currently on disk

	// Latency histograms. ingestHist and queueWaitHist are unlabeled;
	// solveHist is per-engine and lives under engineMu with the other
	// per-engine state. All are created by init (or lazily for new engine
	// labels), never replaced, so Observe never races with construction.
	ingestHist    *obs.Histogram
	queueWaitHist *obs.Histogram

	engineMu         sync.Mutex
	engineSubmitted  map[string]int64 // submissions accepted, by engine label
	engineSolves     map[string]int64 // solves executed (cache hits excluded), by engine
	engineSolveNanos map[string]int64 // cumulative solver wall time, by engine
	engineSolveHist  map[string]*obs.Histogram
}

// init creates the histograms. Must run before the server starts observing.
func (m *metrics) init() {
	m.ingestHist = obs.NewHistogram(nil)
	m.queueWaitHist = obs.NewHistogram(nil)
}

// recordIngest records one request-body ingest duration.
func (m *metrics) recordIngest(d time.Duration) {
	if m.ingestHist != nil {
		m.ingestHist.Observe(d)
	}
}

// recordQueueWait records how long a job sat in the queue before a worker
// picked it up.
func (m *metrics) recordQueueWait(d time.Duration) {
	if m.queueWaitHist != nil {
		m.queueWaitHist.Observe(d)
	}
}

// recordEngineSubmit counts an accepted submission under its engine label.
func (m *metrics) recordEngineSubmit(engine string) {
	m.engineMu.Lock()
	if m.engineSubmitted == nil {
		m.engineSubmitted = map[string]int64{}
	}
	m.engineSubmitted[engine]++
	m.engineMu.Unlock()
}

// recordEngineSolve counts one executed solve and its wall time under the
// engine label, and feeds the per-engine latency histogram.
func (m *metrics) recordEngineSolve(engine string, d time.Duration) {
	m.engineMu.Lock()
	if m.engineSolves == nil {
		m.engineSolves = map[string]int64{}
		m.engineSolveNanos = map[string]int64{}
	}
	m.engineSolves[engine]++
	m.engineSolveNanos[engine] += int64(d)
	if m.engineSolveHist == nil {
		m.engineSolveHist = map[string]*obs.Histogram{}
	}
	h := m.engineSolveHist[engine]
	if h == nil {
		h = obs.NewHistogram(nil)
		m.engineSolveHist[engine] = h
	}
	m.engineMu.Unlock()
	h.Observe(d)
}

// engineSnapshot copies the per-engine state for rendering, with labels
// sorted so the exposition is stable across scrapes. Every returned map is
// keyed by the same sorted label set.
func (m *metrics) engineSnapshot() (labels []string, submitted, solves, nanos map[string]int64, hists map[string]obs.HistSnapshot) {
	m.engineMu.Lock()
	defer m.engineMu.Unlock()
	submitted = make(map[string]int64, len(m.engineSubmitted))
	solves = make(map[string]int64, len(m.engineSolves))
	nanos = make(map[string]int64, len(m.engineSolveNanos))
	hists = make(map[string]obs.HistSnapshot, len(m.engineSolveHist))
	seen := map[string]bool{}
	for e, v := range m.engineSubmitted {
		submitted[e] = v
		seen[e] = true
	}
	for e, v := range m.engineSolves {
		solves[e] = v
		seen[e] = true
	}
	for e, v := range m.engineSolveNanos {
		nanos[e] = v
	}
	for e, h := range m.engineSolveHist {
		hists[e] = h.Snapshot()
		seen[e] = true
	}
	for e := range seen {
		labels = append(labels, e)
	}
	sort.Strings(labels)
	return labels, submitted, solves, nanos, hists
}

// metricsSnapshot is one consistent view of every exported series, gathered
// before rendering starts.
type metricsSnapshot struct {
	httpRequests, jobsSubmitted, jobsCompleted, jobsFailed int64
	jobsRejected, jobsCoalesced, jobsRunning               int64
	cacheHits, cacheMisses, cacheEvictions                 int64
	deltaSubmitted, deltaWarm, deltaCold                   int64
	deltaChainReset, baseMisses, graphEvictions            int64
	binarySubmitted, oocSubmitted, spillBytes, spillActive int64
	ingestReused                                           int64
	diskEnabled                                            bool
	diskHits, diskMisses, diskErrors, diskBytes            int64
	diskEntries, warmFetched, warmErrors                   int64
	engineLabels                                           []string
	engineSubmitted, engineSolves, engineSolveNanos        map[string]int64
	engineSolveHist                                        map[string]obs.HistSnapshot
	ingest, queueWait                                      obs.HistSnapshot
	queueDepth, queueCap, workers                          int64
	cacheEntries, graphEntries                             int
	cacheBytes, cacheClamps, graphBytes, graphClamps       int64
	prepStats                                              prep.Stats
	uptimeSec                                              int64
}

// snapshotMetrics gathers every subsystem's state once. The engine maps, the
// queue gauges and the cache gauges are all read here, before any byte of the
// exposition is written.
func (s *Server) snapshotMetrics() metricsSnapshot {
	m := &s.met
	snap := metricsSnapshot{
		httpRequests:    m.httpRequests.Load(),
		jobsSubmitted:   m.jobsSubmitted.Load(),
		jobsCompleted:   m.jobsCompleted.Load(),
		jobsFailed:      m.jobsFailed.Load(),
		jobsRejected:    m.jobsRejected.Load(),
		jobsCoalesced:   m.jobsCoalesced.Load(),
		jobsRunning:     m.jobsRunning.Load(),
		cacheHits:       m.cacheHits.Load(),
		cacheMisses:     m.cacheMisses.Load(),
		cacheEvictions:  m.cacheEvictions.Load(),
		deltaSubmitted:  m.deltaSubmitted.Load(),
		deltaWarm:       m.deltaWarm.Load(),
		deltaCold:       m.deltaCold.Load(),
		deltaChainReset: m.deltaChainReset.Load(),
		baseMisses:      m.baseMisses.Load(),
		graphEvictions:  m.graphEvictions.Load(),
		binarySubmitted: m.binarySubmitted.Load(),
		ingestReused:    m.ingestReused.Load(),
		oocSubmitted:    m.oocSubmitted.Load(),
		spillBytes:      m.spillBytes.Load(),
		spillActive:     m.spillActive.Load(),
		ingest:          m.ingestHist.Snapshot(),
		queueWait:       m.queueWaitHist.Snapshot(),
		queueDepth:      int64(len(s.queue)),
		queueCap:        int64(cap(s.queue)),
		workers:         int64(s.cfg.Workers),
		uptimeSec:       int64(time.Since(s.start).Seconds()),
	}
	if s.disk != nil {
		snap.diskEnabled = true
		snap.diskHits, snap.diskMisses, snap.diskErrors, snap.diskBytes, snap.diskEntries = s.disk.Stats()
		snap.warmFetched = m.warmFetched.Load()
		snap.warmErrors = m.warmErrors.Load()
	}
	snap.engineLabels, snap.engineSubmitted, snap.engineSolves, snap.engineSolveNanos, snap.engineSolveHist = m.engineSnapshot()
	snap.cacheEntries, snap.cacheBytes = s.cache.stats()
	snap.cacheClamps = s.cache.clampCount()
	snap.graphEntries, snap.graphBytes = s.graphs.stats()
	snap.graphClamps = s.graphs.clampCount()
	snap.prepStats = s.preps.Stats()
	return snap
}

// handleMetrics serves the Prometheus text exposition format from one
// consistent snapshot (see snapshotMetrics).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotMetrics()
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("mdbgpd_http_requests_total", "HTTP requests received.", snap.httpRequests)
	counter("mdbgpd_jobs_submitted_total", "Partition jobs accepted (cache hits included).", snap.jobsSubmitted)
	counter("mdbgpd_jobs_completed_total", "Partition jobs solved successfully.", snap.jobsCompleted)
	counter("mdbgpd_jobs_failed_total", "Partition jobs that errored.", snap.jobsFailed)
	counter("mdbgpd_jobs_rejected_total", "Submissions rejected with 429 (queue saturated).", snap.jobsRejected)
	counter("mdbgpd_jobs_coalesced_total", "Submissions coalesced onto an identical in-flight job.", snap.jobsCoalesced)
	counter("mdbgpd_cache_hits_total", "Result-cache hits.", snap.cacheHits)
	counter("mdbgpd_cache_misses_total", "Result-cache misses.", snap.cacheMisses)
	counter("mdbgpd_cache_evictions_total", "Results evicted from the LRU cache.", snap.cacheEvictions)
	counter("mdbgpd_delta_submitted_total", "Delta (?base=) submissions received.", snap.deltaSubmitted)
	counter("mdbgpd_delta_warm_total", "Delta jobs dispatched with a warm start.", snap.deltaWarm)
	counter("mdbgpd_delta_cold_total", "Delta jobs dispatched cold (churn, chain depth, engine capability or evicted solution).", snap.deltaCold)
	counter("mdbgpd_delta_chain_resets_total", "Delta solves forced cold by the warm-chain depth limit.", snap.deltaChainReset)
	counter("mdbgpd_delta_base_misses_total", "Delta submissions rejected because the base graph was unknown or evicted.", snap.baseMisses)
	counter("mdbgpd_graph_cache_evictions_total", "Base graphs evicted from the graph cache.", snap.graphEvictions)
	counter("mdbgpd_ingest_binary_total", "Submissions received in the binary wire format (application/x-mdbgp-csr).", snap.binarySubmitted)
	counter("mdbgpd_ingest_reused_total", "Uploads byte-identical to one that produced a retained graph, served without decoding, validating or hashing the body.", snap.ingestReused)
	counter("mdbgpd_ooc_jobs_total", "Submissions that exceeded the resident-edge budget and took the out-of-core path.", snap.oocSubmitted)
	counter("mdbgpd_spill_bytes_total", "Cumulative bytes written to out-of-core spill files.", snap.spillBytes)
	gauge("mdbgpd_spill_active", "Out-of-core spill files currently on disk.", snap.spillActive)
	fmt.Fprintf(&b, "# HELP mdbgpd_jobs_by_engine_total Submissions accepted, by solver engine.\n# TYPE mdbgpd_jobs_by_engine_total counter\n")
	for _, e := range snap.engineLabels {
		fmt.Fprintf(&b, "mdbgpd_jobs_by_engine_total{engine=%q} %d\n", e, snap.engineSubmitted[e])
	}
	fmt.Fprintf(&b, "# HELP mdbgpd_solves_by_engine_total Solves executed (cache hits excluded), by solver engine.\n# TYPE mdbgpd_solves_by_engine_total counter\n")
	for _, e := range snap.engineLabels {
		fmt.Fprintf(&b, "mdbgpd_solves_by_engine_total{engine=%q} %d\n", e, snap.engineSolves[e])
	}
	fmt.Fprintf(&b, "# HELP mdbgpd_solve_seconds_by_engine_total Cumulative solver wall time, by engine.\n# TYPE mdbgpd_solve_seconds_by_engine_total counter\n")
	for _, e := range snap.engineLabels {
		fmt.Fprintf(&b, "mdbgpd_solve_seconds_by_engine_total{engine=%q} %g\n", e, time.Duration(snap.engineSolveNanos[e]).Seconds())
	}
	fmt.Fprintf(&b, "# HELP mdbgpd_solve_duration_seconds Wall time of one executed solve (cache hits excluded), by solver engine.\n# TYPE mdbgpd_solve_duration_seconds histogram\n")
	for _, e := range snap.engineLabels {
		if h, ok := snap.engineSolveHist[e]; ok {
			obs.WritePromHistogram(&b, "mdbgpd_solve_duration_seconds", fmt.Sprintf("engine=%q", e), h)
		}
	}
	fmt.Fprintf(&b, "# HELP mdbgpd_queue_wait_seconds Time a job waited in the bounded queue before a worker picked it up.\n# TYPE mdbgpd_queue_wait_seconds histogram\n")
	obs.WritePromHistogram(&b, "mdbgpd_queue_wait_seconds", "", snap.queueWait)
	fmt.Fprintf(&b, "# HELP mdbgpd_ingest_duration_seconds Wall time ingesting one request body: reading, parsing and hashing it, or reading and digesting a re-upload served from the graph cache.\n# TYPE mdbgpd_ingest_duration_seconds histogram\n")
	obs.WritePromHistogram(&b, "mdbgpd_ingest_duration_seconds", "", snap.ingest)
	gauge("mdbgpd_jobs_running", "Jobs currently being solved.", snap.jobsRunning)
	gauge("mdbgpd_queue_depth", "Jobs waiting in the bounded queue.", snap.queueDepth)
	gauge("mdbgpd_queue_capacity", "Capacity of the bounded queue.", snap.queueCap)
	gauge("mdbgpd_workers", "Worker goroutines draining the queue.", snap.workers)
	gauge("mdbgpd_cache_entries", "Results held in the LRU cache.", int64(snap.cacheEntries))
	gauge("mdbgpd_cache_bytes", "Approximate bytes held by cached results (payloads + keys + bookkeeping).", snap.cacheBytes)
	counter("mdbgpd_cache_accounting_clamps_total", "Times the result-cache byte gauge went negative and was clamped (accounting bug).", snap.cacheClamps)
	gauge("mdbgpd_graph_cache_entries", "Base graphs held for delta submissions.", int64(snap.graphEntries))
	gauge("mdbgpd_graph_cache_bytes", "Approximate bytes held by cached base graphs (payloads + keys + bookkeeping).", snap.graphBytes)
	counter("mdbgpd_graph_cache_accounting_clamps_total", "Times the graph-cache byte gauge went negative and was clamped (accounting bug).", snap.graphClamps)
	counter("mdbgpd_prep_cache_hits_total", "Prep-artifact lookups served from cache (coarsening hierarchies).", snap.prepStats.Hits)
	counter("mdbgpd_prep_cache_misses_total", "Prep-artifact lookups that built the artifact inline (stale entries included).", snap.prepStats.Misses)
	counter("mdbgpd_prep_cache_evictions_total", "Prep artifacts evicted to hold the byte budget.", snap.prepStats.Evictions)
	gauge("mdbgpd_prep_cache_entries", "Prep artifacts currently retained.", int64(snap.prepStats.Entries))
	gauge("mdbgpd_prep_cache_bytes", "Approximate bytes held by retained prep artifacts (payloads + keys + bookkeeping).", snap.prepStats.Bytes)
	counter("mdbgpd_prep_cache_accounting_clamps_total", "Times the prep-cache byte gauge went negative and was clamped (accounting bug).", snap.prepStats.Clamps)
	if snap.diskEnabled {
		counter("mdbgpd_cache_disk_hits_total", "Results served from the durable disk tier.", snap.diskHits)
		counter("mdbgpd_cache_disk_misses_total", "Disk-tier lookups that found no entry.", snap.diskMisses)
		counter("mdbgpd_cache_disk_errors_total", "Disk-tier failures: corrupt entries quarantined, write/IO errors, dropped spills.", snap.diskErrors)
		gauge("mdbgpd_cache_disk_bytes", "Bytes held by the durable disk tier.", snap.diskBytes)
		gauge("mdbgpd_cache_disk_entries", "Entries held by the durable disk tier.", snap.diskEntries)
		counter("mdbgpd_cache_warm_fetched_total", "Cache entries pulled from peers during startup warming.", snap.warmFetched)
		counter("mdbgpd_cache_warm_errors_total", "Failed peer polls or entry fetches during startup warming.", snap.warmErrors)
	}
	gauge("mdbgpd_uptime_seconds", "Seconds since the server started.", snap.uptimeSec)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
