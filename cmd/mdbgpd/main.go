// Command mdbgpd is the partitioning-as-a-service daemon: a long-running
// HTTP server wrapping the mdbgp engine with a bounded async job queue, a
// worker pool and a content-addressed LRU result cache (internal/server).
//
// Usage:
//
//	mdbgpd -addr :8080 -workers 4 -queue 128 -cache 512
//
//	# submit a job (body = edge list, options = query params)
//	curl -s --data-binary @graph.txt 'localhost:8080/v1/partition?k=8&seed=42'
//	# pick a solver engine per request (gd, multilevel, fennel, blp, shp, metis)
//	curl -s --data-binary @graph.txt 'localhost:8080/v1/partition?k=8&engine=fennel'
//	# poll it
//	curl -s localhost:8080/v1/jobs/j1-ab12cd34
//	# fetch the assignment ("vertex part" lines)
//	curl -s localhost:8080/v1/jobs/j1-ab12cd34/assignment
//	# fetch the request's span tree: ingest, queue wait, and the solve's
//	# internal phases with per-bisection convergence telemetry
//	curl -s localhost:8080/v1/jobs/j1-ab12cd34/trace
//	# or block until solved (bounded by -maxwait)
//	curl -s --data-binary @graph.txt 'localhost:8080/v1/partition?k=8&wait=true'
//	# incremental: submit an edge delta against a previous job; the solve
//	# warm-starts from the cached base solution
//	printf '+12 99\n-4 7\n' | curl -s --data-binary @- \
//	  'localhost:8080/v1/partition?k=8&seed=42&base=j1-ab12cd34&wait=true'
//
// Observability: structured logs go to stderr (-log-format json for
// machine-readable records, -slow to tune the slow-solve warning threshold),
// GET /metrics serves Prometheus counters, gauges and latency histograms,
// GET /readyz flips to 503 during the -drain-grace window after SIGTERM so
// load balancers stop routing before the listener closes, and -pprof-addr
// exposes net/http/pprof on a separate listener (off by default — profiling
// endpoints do not belong on the serving port).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mdbgp/internal/server"
	"mdbgp/internal/wire"
)

func main() {
	d, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // usage already printed
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdbgpd: %v\n", err)
		os.Exit(2)
	}
	if err := run(d, nil); err != nil {
		fmt.Fprintf(os.Stderr, "mdbgpd: %v\n", err)
		os.Exit(1)
	}
}

// daemonOptions is the parsed command line: the server configuration plus
// the process-level knobs (listeners, logging, drain behavior) that live
// outside server.Config.
type daemonOptions struct {
	cfg        server.Config
	addr       string
	pprofAddr  string        // "" = pprof off
	logFormat  string        // "text" or "json"
	drainGrace time.Duration // how long /readyz says 503 before Shutdown starts
	self       string        // this replica's ring identity (its routable base URL)
	peers      []string      // peer base URLs to warm the disk tier from at startup
	warmConc   int           // concurrent peer fetches during warming
}

// parseFlags maps the command line onto daemonOptions.
func parseFlags(args []string) (daemonOptions, error) {
	fs := flag.NewFlagSet("mdbgpd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 2, "concurrent partition jobs")
		queue       = fs.Int("queue", 64, "pending-job queue depth (beyond it submissions get 429)")
		cache       = fs.Int("cache", 256, "result-cache capacity in entries (negative disables)")
		maxBodyMB   = fs.Int64("max-body-mb", 256, "request body limit in MiB")
		maxVertexID = fs.Int("max-vertex-id", 0, "largest accepted vertex id (0 = 16M default; negative = representation limit)")
		par         = fs.Int("p", 0, "solver parallelism per job: 0 = all cores (results are seed-deterministic either way)")
		retain      = fs.Int("retain", 1024, "completed jobs kept for polling")
		maxWait     = fs.Duration("maxwait", 30*time.Second, "cap on ?wait=true blocking")
		graphCache  = fs.Int("graph-cache", 64, "base graphs kept for delta (?base=) submissions and byte-identical re-uploads (negative disables)")
		maxChurn    = fs.Float64("max-churn", 0.25, "edge-churn fraction above which delta solves go cold instead of warm-starting (0 never warm-starts)")
		maxChain    = fs.Int("max-chain-depth", 8, "warm delta-of-delta hops allowed before forcing a cold re-solve (<=0 lifts the limit)")
		prepCache   = fs.Int64("prep-cache", 256, "prep-artifact cache budget in MiB: the coarsening hierarchies of multilevel and metis solves are retained per graph and reused by repeat solves (results are byte-identical either way; <=0 disables)")
		pprofAddr   = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		logFormat   = fs.String("log-format", "text", "structured log encoding: text or json")
		slow        = fs.Duration("slow", 0, "solve duration above which a job is logged at Warn (0 = 2s default, negative disables)")
		noTrace     = fs.Bool("no-trace", false, "disable per-request span traces (and GET /v1/jobs/{id}/trace)")
		drainGrace  = fs.Duration("drain-grace", 0, "after SIGTERM, keep serving with /readyz=503 this long before closing the listener")
		cacheDir    = fs.String("cache-dir", "", "directory for the durable result-cache tier (empty = memory-only); completed results spill here and survive restarts")
		trustHash   = fs.Bool("trust-hash-header", false, "accept "+server.GraphHashHeader+" as the canonical graph hash; enable ONLY behind a trusted router (cmd/mdbgp-router)")
		self        = fs.String("self", "", "this replica's base URL as the routing tier knows it (its consistent-hash ring identity); required with -peers")
		peers       = fs.String("peers", "", "comma-separated peer base URLs to warm the -cache-dir tier from at startup")
		warmConc    = fs.Int("warm-concurrency", 4, "concurrent peer fetches during startup cache warming")
		maxResident = fs.Int64("max-resident-edges", 0, "largest graph (edges) materialized in memory; binary (Content-Type: "+wire.ContentType+") uploads above it spill to disk and solve out-of-core via a streaming engine (0 = unlimited)")
		spillDir    = fs.String("spill-dir", "", "directory for out-of-core spill files (empty = OS temp dir)")
	)
	if err := fs.Parse(args); err != nil {
		return daemonOptions{}, err
	}
	if fs.NArg() > 0 {
		return daemonOptions{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *logFormat != "text" && *logFormat != "json" {
		return daemonOptions{}, fmt.Errorf("bad -log-format %q (want text or json)", *logFormat)
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	// Warming constraints fail fast at flag time, not as a silent no-op at
	// startup: peers without a ring identity cannot resolve ownership, and
	// without a durable tier there is nowhere to put what warming fetches.
	if len(peerList) > 0 && *self == "" {
		return daemonOptions{}, errors.New("-peers requires -self (this replica's ring identity)")
	}
	if len(peerList) > 0 && *cacheDir == "" {
		return daemonOptions{}, errors.New("-peers requires -cache-dir (warming fills the durable tier)")
	}
	if *cacheDir != "" {
		// Fail fast on an unusable cache dir (typo, permissions): the server
		// itself degrades to memory-only on open errors, which is right for a
		// library but wrong for an operator who explicitly asked for it.
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			return daemonOptions{}, fmt.Errorf("-cache-dir: %w", err)
		}
	}
	if *spillDir != "" {
		// Same fail-fast: an unusable spill dir would otherwise surface as a
		// 500 on the first out-of-core submission, long after startup.
		if err := os.MkdirAll(*spillDir, 0o755); err != nil {
			return daemonOptions{}, fmt.Errorf("-spill-dir: %w", err)
		}
	}
	d := daemonOptions{
		cfg: server.Config{
			Workers:           *workers,
			QueueDepth:        *queue,
			CacheEntries:      *cache,
			MaxBodyBytes:      *maxBodyMB << 20,
			MaxVertexID:       *maxVertexID,
			Parallelism:       *par,
			RetainJobs:        *retain,
			MaxWait:           *maxWait,
			GraphCacheEntries: *graphCache,
			MaxChurn:          *maxChurn,
			MaxChainDepth:     *maxChain,
			PrepCacheBytes:    *prepCache << 20,
			SlowRequest:       *slow,
			DisableTracing:    *noTrace,
			CacheDir:          *cacheDir,
			TrustHashHeader:   *trustHash,
			MaxResidentEdges:  *maxResident,
			SpillDir:          *spillDir,
		},
		addr:       *addr,
		pprofAddr:  *pprofAddr,
		logFormat:  *logFormat,
		drainGrace: *drainGrace,
		self:       *self,
		peers:      peerList,
		warmConc:   *warmConc,
	}
	if *maxChurn == 0 {
		// The Config zero value means "use the 25% default"; an operator
		// passing an explicit 0 means "never warm-start", which the config
		// spells as negative.
		d.cfg.MaxChurn = -1
	}
	if *maxChain <= 0 {
		// Same zero-value dance: an explicit 0 (or below) lifts the depth
		// limit, which the config spells as negative.
		d.cfg.MaxChainDepth = -1
	}
	if *prepCache <= 0 {
		// And again: an explicit -prep-cache=0 disables the cache, which the
		// config spells as negative (its zero value means "256 MiB default").
		d.cfg.PrepCacheBytes = -1
	}
	return d, nil
}

// newLogger builds the daemon's structured logger on stderr.
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// run boots the service and blocks until SIGINT/SIGTERM or a serve error.
// ready, when non-nil, receives the bound address once listening — the e2e
// harness uses it to drive a daemon bound to port 0.
func run(d daemonOptions, ready chan<- string) error {
	logger := newLogger(d.logFormat)
	d.cfg.Logger = logger
	svc := server.New(d.cfg)
	defer svc.Close()
	httpSrv := &http.Server{Addr: d.addr, Handler: svc}

	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		return err
	}
	if d.pprofAddr != "" {
		// pprof gets its own mux and listener: the serving mux must never
		// grow profiling endpoints, and an operator can firewall the two
		// ports independently.
		pln, err := net.Listen("tcp", d.pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go http.Serve(pln, pmux)
		logger.Info("pprof serving", slog.String("addr", pln.Addr().String()))
	}
	// The signal handler must be registered before readiness is announced:
	// a supervisor (or the e2e harness) may react to "ready" with an
	// immediate SIGTERM, and an unhandled one kills the process outright.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	eff := svc.Config()
	logger.Info("serving",
		slog.String("addr", ln.Addr().String()),
		slog.Int("workers", eff.Workers),
		slog.Int("queue", eff.QueueDepth),
		slog.Int("cache", eff.CacheEntries),
		slog.Bool("tracing", !eff.DisableTracing))
	if ready != nil {
		ready <- ln.Addr().String()
	}
	if len(d.peers) > 0 {
		// Self-warming runs behind the listener, not before it: the replica
		// serves (read-through finds entries as they land) while it pulls its
		// ring-owned keys from neighbors.
		go svc.WarmFromPeers(d.self, d.peers, d.warmConc)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case s := <-sig:
		// Graceful drain: readiness flips first so load balancers stop
		// routing, the grace window lets them act on it, then Shutdown stops
		// accepting and waits for active handlers.
		logger.Info("shutting down", slog.String("signal", s.String()), slog.Duration("drain_grace", d.drainGrace))
		svc.SetDraining(true)
		if d.drainGrace > 0 {
			time.Sleep(d.drainGrace)
		}
		// The drain must outlast the longest a handler can legitimately
		// block: a ?wait=true submission waits up to MaxWait.
		ctx, cancel := context.WithTimeout(context.Background(), svc.Config().MaxWait+5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	}
}
