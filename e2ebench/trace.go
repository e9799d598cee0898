package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mdbgp"
)

// spanRec is one of the benchmark's own spans.
type spanRec struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // -1 for a root
	Trace   string         `json:"trace"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"` // since the recorder's epoch
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// recorder keeps the benchmark's spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs pay one nil check per span.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []spanRec
	joined []joinedTrace
}

// joinedTrace is a daemon span tree fetched from /v1/jobs/{id}/trace,
// attached under the benchmark's client span of the same request. Its
// offsets are on the daemon's clock, relative to its own root.
type joinedTrace struct {
	Trace  string          `json:"trace"`
	Parent int             `json:"parent"`
	JobID  string          `json:"job_id"`
	Daemon *mdbgp.SpanView `json:"daemon"`
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) start(trace, name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent, Trace: trace, Name: name,
		StartUS: time.Since(r.epoch).Microseconds(), DurUS: -1})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	if s.DurUS < 0 {
		s.DurUS = time.Since(r.epoch).Microseconds() - s.StartUS
	}
}

func (r *recorder) attr(id int, key string, v any) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	if s.Attrs == nil {
		s.Attrs = make(map[string]any)
	}
	s.Attrs[key] = v
}

func (r *recorder) join(trace string, parent int, jobID string, tree *mdbgp.SpanView) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.joined = append(r.joined, joinedTrace{Trace: trace, Parent: parent, JobID: jobID, Daemon: tree})
}

// write stores every span as JSON lines: the benchmark's spans first, then
// the daemon trees joined under them.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // for the error paths; the success path checks Close
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	for i := range r.joined {
		if err := enc.Encode(&r.joined[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// covered returns the length of the union of intervals, each clipped to
// [lo, hi). Concurrent children overlap, so their durations cannot simply
// be summed.
func covered(lo, hi int64, intervals [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(intervals))
	for _, iv := range intervals {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total, curLo, curHi := int64(0), int64(0), int64(-1)
	for i, iv := range clipped {
		if i == 0 || iv[0] > curHi {
			if i > 0 {
				total += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if len(clipped) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfUS is a span's duration minus the part of it its children cover.
func selfUS(v *mdbgp.SpanView) int64 {
	iv := make([][2]int64, len(v.Children))
	for i, c := range v.Children {
		iv[i] = [2]int64{c.StartUS, c.StartUS + c.DurUS}
	}
	return v.DurUS - covered(v.StartUS, v.StartUS+v.DurUS, iv)
}

// spanTotals sums one request's daemon spans by stage.
type spanTotals struct {
	hasSolve, hasQueue, hasPrep            bool
	requestUS, ingestSelfUS, lookupUS      int64
	queueUS, solveSelfUS, unattributedUS   int64
	prepUS, gdUS, roundUS, bisectSelfUS    int64
	coarsenUS, coarseSolveUS, refineUS     int64
	gdRuns, gdIters, gdFixed, gdN, repairs float64
	coarsenSpans                           int
	coarsenLevels                          float64
}

func totalsOf(root *mdbgp.SpanView) spanTotals {
	var t spanTotals
	t.requestUS = root.DurUS
	t.unattributedUS = selfUS(root)
	for _, c := range root.Children {
		switch c.Name {
		case "ingest":
			t.ingestSelfUS += selfUS(c)
		case "cache-lookup":
			t.lookupUS += c.DurUS
		case "queue-wait":
			t.hasQueue = true
			t.queueUS += c.DurUS
		case "solve":
			t.hasSolve = true
			t.solveSelfUS += selfUS(c)
		}
	}
	root.Walk(func(v *mdbgp.SpanView) {
		f := func(k string) float64 { x, _ := v.Float(k); return x }
		switch v.Name {
		case "prep":
			t.hasPrep = true
			t.prepUS += v.DurUS
		case "gd":
			t.gdUS += v.DurUS
			t.gdRuns++
			t.gdIters += f("iters")
			t.gdFixed += f("fixed")
			t.gdN += f("n")
		case "round":
			t.roundUS += v.DurUS
			t.repairs += f("repair_moves")
		case "bisect":
			t.bisectSelfUS += selfUS(v)
		case "coarsen":
			t.coarsenUS += v.DurUS
			t.coarsenSpans++
			t.coarsenLevels += f("levels")
		case "coarse-solve":
			t.coarseSolveUS += v.DurUS
		case "refine":
			t.refineUS += v.DurUS
		}
	})
	return t
}

// traceLayers derives the span-based per-layer metrics from the traced
// requests. Solve-stage figures are medians over the requests that ran a
// solve; cache hits have none. prep.ms is a mean: most prep spans reuse a
// cached artifact in microseconds, and a median would hide the builds.
func traceLayers(outs []*outcome) (map[string]float64, error) {
	var ingest, lookup, queue, unattr, response []float64
	var solveSelf, prep, gd, gdRuns, gdIters, round, repairs, bisectSelf []float64
	var coarsen, coarseSolve, refine []float64
	var fixed, nsum, levels float64
	coarsenSpans := 0
	queueMax := 0.0
	ms := func(us int64) float64 { return float64(us) / 1e3 }
	for _, o := range outs {
		root := o.tree
		if root == nil {
			return nil, fmt.Errorf("request %s has no daemon trace", o.job.ID)
		}
		t := totalsOf(root)
		ingest = append(ingest, ms(t.ingestSelfUS))
		lookup = append(lookup, ms(t.lookupUS))
		unattr = append(unattr, ms(t.unattributedUS))
		response = append(response, o.latency.Seconds()*1e3-ms(t.requestUS))
		if t.hasQueue {
			queue = append(queue, ms(t.queueUS))
			queueMax = max(queueMax, ms(t.queueUS))
		}
		if t.hasPrep {
			prep = append(prep, ms(t.prepUS))
		}
		if !t.hasSolve {
			continue
		}
		solveSelf = append(solveSelf, ms(t.solveSelfUS))
		gd = append(gd, ms(t.gdUS))
		gdRuns = append(gdRuns, t.gdRuns)
		gdIters = append(gdIters, t.gdIters)
		round = append(round, ms(t.roundUS))
		repairs = append(repairs, t.repairs)
		bisectSelf = append(bisectSelf, ms(t.bisectSelfUS))
		coarsen = append(coarsen, ms(t.coarsenUS))
		coarseSolve = append(coarseSolve, ms(t.coarseSolveUS))
		refine = append(refine, ms(t.refineUS))
		fixed += t.gdFixed
		nsum += t.gdN
		coarsenSpans += t.coarsenSpans
		levels += t.coarsenLevels
	}
	m := map[string]float64{
		"server.ingest_ms":           median(ingest),
		"server.cache_lookup_ms":     median(lookup),
		"server.queue_wait_ms":       median(queue),
		"server.queue_wait_max_ms":   queueMax,
		"server.solve_self_ms":       median(solveSelf),
		"server.unattributed_ms":     median(unattr),
		"server.response_ms":         median(response),
		"prep.ms":                    ratio(sum(prep), float64(len(prep))),
		"core.gd_ms":                 median(gd),
		"core.gd_runs":               median(gdRuns),
		"core.gd_iters":              median(gdIters),
		"core.fixed_frac":            ratio(fixed, nsum),
		"core.round_ms":              median(round),
		"core.repair_moves":          median(repairs),
		"core.bisect_self_ms":        median(bisectSelf),
		"coarsen.ms":                 median(coarsen),
		"coarsen.levels":             ratio(levels, float64(coarsenSpans)),
		"multilevel.coarse_solve_ms": median(coarseSolve),
		"multilevel.refine_ms":       median(refine),
	}
	return m, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercises).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
