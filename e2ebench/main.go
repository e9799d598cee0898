// Command e2ebench is the repository's end-to-end benchmark. It starts the
// real mdbgpd daemon (default flags, loopback), drives it through the public
// HTTP API from one load-generator process with at most two connections,
// verifies every answer after the measured phase, and prints one JSON line
// of metrics. run.sh builds the daemon and the benchmark from source first:
//
//	bash e2ebench/run.sh --workload gd-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (inputs are generated from -seed; the daemon sees only them):
//
//   - gd-cold: one ≈1M-edge degree-skewed graph with shuffled ids, binary
//     upload, engine=gd, k=16, a fresh seed per request; one closed-loop
//     client. GD iterations and ingest carry the latency; no cache helps.
//   - ml-repartition: one ≈720k-edge community-dense graph with local ids,
//     engine=multilevel on three dimensions, each seed at k=8, 4 and 2, so
//     two of every three requests reuse the cached coarsening hierarchy;
//     one closed-loop client.
//   - serve-mix: 16 small text graphs, two closed-loop clients owning eight
//     each; repeats that hit the result cache, cold solves at new seeds,
//     and ≈1%-churn deltas that warm-start and create graph versions.
//
// Latency runs from the first byte of the submit to the last byte of the
// assignment, polling included. With -trace 0 a run sets up three times
// (setup_s is the median), measures, and reports the end-to-end metrics; no
// benchmark spans are recorded and no traces are read. With -trace 1 it
// runs the request sequence untraced on a fresh daemon and then traced on
// another (benchmark spans around every call, each request's
// /v1/jobs/{id}/trace joined under its client span), probes each layer's
// exported functions on the workload's own inputs, prints the per-layer
// metrics and writes every span to a JSON-lines file under -out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"mdbgp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // mdbgpd binary
	out      string // directory for span files
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs and request sequence are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&o.daemon, "daemon", "", "path to the mdbgpd binary under test")
	fs.StringVar(&o.out, "out", ".bench_build", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	case !slices.Contains(workloadNames, o.workload):
		return o, fmt.Errorf("-workload %q: want one of %v", o.workload, workloadNames)
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("-trace %d: want 0 or 1", trace)
	case o.daemon == "":
		return o, errors.New("-daemon is required")
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return o, fmt.Errorf("daemon binary: %w", err)
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) error {
	opt, err := parseFlags(args)
	if err != nil {
		return err
	}
	var rep *report
	if opt.trace {
		rep, err = tracedRun(opt)
	} else {
		rep, err = timedRun(opt)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setupReps is how many times a timed run sets up; setup_s is the median.
const setupReps = 3

// rig is a daemon plus the workload's clients, set up and warmed.
type rig struct {
	w      *workload
	d      *daemon
	loops  []*closedLoop
	warmup *outcome
}

// setup generates the workload, starts the daemon, waits for /readyz and
// runs one untimed warm-up request (the first request of client 0's plan).
// extra flags go to the daemon.
func setup(ctx context.Context, opt options, w *workload, extra ...string) (*rig, error) {
	var err error
	if w == nil {
		if w, err = buildWorkload(opt.workload, opt.seed); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(opt.daemon, extra...)
	if err != nil {
		return nil, err
	}
	s := &rig{w: w, d: d}
	hc := newHTTPClient()
	for _, p := range w.newPlans() {
		s.loops = append(s.loops, &closedLoop{plan: p, c: &client{base: d.url, hc: hc}, jobOf: make(map[*version]string)})
	}
	if s.warmup, err = s.loops[0].step(ctx, "warmup", false); err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return s, nil
}

// closedLoop is one closed-loop client: its plan and the job ids it has seen
// per graph version, which its deltas name as their base.
type closedLoop struct {
	plan  planner
	c     *client
	jobOf map[*version]string
}

// step issues the plan's next request and, when traced, joins the daemon's
// span tree of the request under the client span.
func (cl *closedLoop) step(ctx context.Context, traceID string, traced bool) (*outcome, error) {
	o := cl.plan.next()
	base := ""
	if o.base != nil {
		base = cl.jobOf[o.base]
	}
	out, err := cl.c.do(ctx, o, base, traceID)
	if err != nil {
		return nil, fmt.Errorf("%s request: %w", o.kind, err)
	}
	cl.jobOf[o.ver] = out.job.ID
	if traced {
		var tree mdbgp.SpanView
		if err := cl.c.getJSON(ctx, "/v1/jobs/"+out.job.ID+"/trace", &tree); err != nil {
			return nil, err
		}
		out.tree = &tree
		cl.c.rec.join(traceID, out.trace, out.job.ID, &tree)
	}
	return out, nil
}

// phaseResult is one measured phase.
type phaseResult struct {
	outs      []*outcome
	errs      []error
	attempted int
	wall      time.Duration
	cpu       float64 // daemon CPU seconds over the phase
	before    map[string]float64
	after     map[string]float64
}

// runPhase runs every client in a closed loop until dur has passed; a
// request in flight at the deadline completes and counts.
func runPhase(ctx context.Context, s *rig, dur time.Duration, rec *recorder) (*phaseResult, error) {
	hc := s.loops[0].c.hc
	pr := &phaseResult{}
	var err error
	if pr.before, err = s.d.scrape(ctx, hc); err != nil {
		return nil, err
	}
	cpu0, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	type clientResult struct {
		outs      []*outcome
		errs      []error
		attempted int
	}
	results := make([]clientResult, len(s.loops))
	start := time.Now()
	deadline := start.Add(dur)
	done := make(chan struct{})
	for ci, cl := range s.loops {
		cl.c.rec = rec
		go func() {
			defer func() { done <- struct{}{} }()
			r := &results[ci]
			for i := 0; time.Now().Before(deadline); i++ {
				r.attempted++
				out, err := cl.step(ctx, fmt.Sprintf("c%d-%d", ci, i), rec != nil)
				if err != nil {
					r.errs = append(r.errs, err)
					continue
				}
				r.outs = append(r.outs, out)
			}
		}()
	}
	for range s.loops {
		<-done
	}
	pr.wall = time.Since(start)
	for _, cl := range s.loops {
		cl.c.rec = nil
	}
	cpu1, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	pr.cpu = cpu1 - cpu0
	if pr.after, err = s.d.scrape(ctx, hc); err != nil {
		return nil, err
	}
	for _, r := range results {
		pr.outs = append(pr.outs, r.outs...)
		pr.errs = append(pr.errs, r.errs...)
		pr.attempted += r.attempted
	}
	return pr, nil
}

// checked is the tally of a run's operations: a request that errors, is
// refused or times out, and an answer that fails a check, each count as one
// failed operation.
type checked struct {
	attempted, failed int
	errs              []error
}

// phase counts a phase's requests and its failed ones.
func (c *checked) phase(ph *phaseResult) {
	c.attempted += ph.attempted
	c.failed += len(ph.errs)
	c.errs = append(c.errs, ph.errs...)
}

// verify checks completed requests (already counted as attempted) and
// returns how many passed and how many of those are ε-balanced.
func (c *checked) verify(ck *checker, outs []*outcome, rec *recorder) (verified, balanced int) {
	for _, o := range outs {
		id := rec.start("check", "verify", -1)
		bal, err := ck.check(o)
		rec.end(id)
		if err != nil {
			c.failed++
			c.errs = append(c.errs, err)
			continue
		}
		verified++
		if bal {
			balanced++
		}
	}
	return verified, balanced
}

// crossChecked runs crossCheck as one more operation.
func (c *checked) crossChecked(ctx context.Context, opt options, outs []*outcome, rec *recorder) {
	id := rec.start("check", "cross-check", -1)
	defer rec.end(id)
	c.attempted++
	if err := crossCheck(ctx, opt, outs); err != nil {
		c.failed++
		c.errs = append(c.errs, err)
	}
}

// crossCheck re-solves one full-graph request on a second daemon started
// with -p 1 -cache -1: the assignment must be byte-identical, because output
// bits may not depend on the worker count.
func crossCheck(ctx context.Context, opt options, outs []*outcome) error {
	var pick *outcome
	for _, o := range outs {
		if o.op.base == nil && o.job.Cache == "miss" {
			pick = o
			break
		}
	}
	if pick == nil {
		return errors.New("cross-check: no full-graph solve to repeat")
	}
	d, err := startDaemon(opt.daemon, "-p", "1", "-cache", "-1")
	if err != nil {
		return fmt.Errorf("cross-check daemon: %w", err)
	}
	defer d.stop()
	c := &client{base: d.url, hc: newHTTPClient()}
	got, err := c.do(ctx, pick.op, "", "")
	if err != nil {
		return fmt.Errorf("cross-check: %w", err)
	}
	if !bytes.Equal(got.assignment, pick.assignment) {
		return fmt.Errorf("cross-check: %s re-solved at -p 1 differs from job %s", pick.op.query, pick.job.ID)
	}
	return nil
}

// timedRun measures the end-to-end metrics.
func timedRun(opt options) (*report, error) {
	ctx := context.Background()
	var s *rig
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.d.stop()
			s = nil
		}
		runtime.GC() // the previous set-up's garbage is the benchmark's, not the daemon's
		t0 := time.Now()
		var err error
		if s, err = setup(ctx, opt, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.d.stop()
	ph, err := runPhase(ctx, s, time.Duration(opt.seconds)*time.Second, nil)
	if err != nil {
		return nil, err
	}
	peak, err := s.d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	s.d.stop()

	ck := checked{attempted: 1} // the warm-up request
	ck.phase(ph)
	checker := newChecker()
	ck.verify(checker, []*outcome{s.warmup}, nil)
	verified, balanced := ck.verify(checker, ph.outs, nil)
	ck.crossChecked(ctx, opt, ph.outs, nil)

	var lat, loc []float64
	edges := 0.0
	for _, o := range ph.outs {
		lat = append(lat, o.latency.Seconds()*1e3)
		loc = append(loc, o.job.Result.EdgeLocality)
		edges += float64(o.op.ver.g.M())
	}
	done := float64(len(ph.outs))
	p99, beyond := percentile(lat, 99)
	logf("%s seed %d: %d requests in %.2fs, %d beyond p99", opt.workload, opt.seed, len(lat), ph.wall.Seconds(), beyond)
	if p, v, b, ok := tailPercentile(lat); ok {
		logf("highest percentile with ≥%d samples beyond it: p%g = %.3f ms (%d beyond)", minBeyond, p, v, b)
	}
	logf("setups: %v s", setups)
	logKinds(ph.outs)
	logf("balance: %d of %d verified results violate ε=%g", verified-balanced, verified, balanceEps)
	logCounters(ph)
	logErrors(ck.errs)
	values := map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": median(lat),
		"latency_p99_ms": p99,
		"medges_per_s":   edges / ph.wall.Seconds() / 1e6,
		"throughput_rps": done / ph.wall.Seconds(),
		"cpu_ms_per_op":  ph.cpu * 1e3 / done,
		"mem_peak_mb":    peak,
		"locality":       sum(loc) / done,
		"balanced_frac":  ratio(float64(balanced), float64(verified)),
	}
	rep := &report{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: make(map[string]metric)}
	for _, em := range endToEnd {
		rep.Metrics[em.name] = metric{values[em.name], em.unit}
	}
	return rep, nil
}

// endToEnd is every metric a timed run prints. BENCHMARK.json lists the
// same names, units and directions, with the bound each may worsen by.
var endToEnd = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"medges_per_s", "Medges/s", "higher"},
	{"throughput_rps", "req/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"mem_peak_mb", "MiB", "lower"},
	{"locality", "fraction", "higher"},
	{"balanced_frac", "fraction", "higher"},
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// counter is how much a daemon counter grew over the phase.
func (ph *phaseResult) counter(name string) float64 { return ph.after[name] - ph.before[name] }

func logCounters(ph *phaseResult) {
	delta := ph.counter
	logf("daemon over the phase: cache hits %.0f misses %.0f evictions %.0f, graph evictions %.0f, deltas %.0f (warm %.0f), 429s %.0f",
		delta("mdbgpd_cache_hits_total"), delta("mdbgpd_cache_misses_total"), delta("mdbgpd_cache_evictions_total"),
		delta("mdbgpd_graph_cache_evictions_total"), delta("mdbgpd_delta_submitted_total"),
		delta("mdbgpd_delta_warm_total"), delta("mdbgpd_jobs_rejected_total"))
}

// logKinds prints the median latency per request kind and cache outcome.
func logKinds(outs []*outcome) {
	by := make(map[string][]float64)
	var names []string
	for _, o := range outs {
		name := o.op.kind + "/" + o.job.Cache
		if by[name] == nil {
			names = append(names, name)
		}
		by[name] = append(by[name], o.latency.Seconds()*1e3)
	}
	slices.Sort(names)
	for _, name := range names {
		logf("  %-14s p50 %9.3f ms over %d requests", name, median(by[name]), len(by[name]))
	}
}

func logErrors(errs []error) {
	for i, err := range errs {
		if i == 10 {
			logf("... and %d more failures", len(errs)-i)
			return
		}
		logf("FAILED: %v", err)
	}
}

// spanPath is where a traced run writes its spans.
func spanPath(opt options) string {
	return filepath.Join(opt.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
}
