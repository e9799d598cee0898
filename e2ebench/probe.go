package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"mdbgp"
	"mdbgp/internal/partition"
	"mdbgp/internal/project"
	"mdbgp/internal/vecmath"
	"mdbgp/internal/wire"
)

// probeWorkers is the worker count of the kernel probes: the machine the
// benchmark was sized on has two CPUs, and the daemon solves with all of them.
const probeWorkers = 2

// timeProbe runs fn at least 3 times and for at least 200ms (at most 100
// runs) inside one span and returns the median run time.
func timeProbe(rec *recorder, name string, fn func()) time.Duration {
	id := rec.start("probe", name, -1)
	defer rec.end(id)
	var runs []float64
	start := time.Now()
	for len(runs) < 3 || (time.Since(start) < 200*time.Millisecond && len(runs) < 100) {
		t := time.Now()
		fn()
		runs = append(runs, float64(time.Since(t)))
	}
	rec.attr(id, "runs", len(runs))
	return time.Duration(median(runs))
}

// probeLayers times each layer's exported functions on the workload's own
// inputs: the largest uploaded graph, every uploaded body, and the warm-up
// request's assignment.
func probeLayers(w *workload, warm *outcome, rng *rand.Rand, rec *recorder) (map[string]float64, error) {
	g := w.graphs[0].g
	for _, v := range w.graphs {
		if v.g.M() > g.M() {
			g = v.g
		}
	}
	m := make(map[string]float64)
	n := g.N()
	offsets, adj := g.CSR()

	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	dst := make([]float64, n)
	pool := vecmath.NewPool(probeWorkers)
	t := timeProbe(rec, "vecmath.spmv", func() {
		vecmath.SpMVWeightedMaskedPool(offsets, adj, nil, x, dst, nil, pool)
	})
	spmvBytes := 12*float64(len(adj)) + 24*float64(n) + 8
	m["vecmath.spmv_gbps"] = spmvBytes / t.Seconds() / 1e9
	logf("spmv probe: n=%d arcs=%d, working set %.1f MiB (CSR + x + dst), %.2f GB/s of computed bytes",
		n, len(adj), float64(4*len(adj)+8*(n+1)+16*n)/(1<<20), m["vecmath.spmv_gbps"])

	ws, err := mdbgp.StandardWeights(g, w.dims...)
	if err != nil {
		return nil, err
	}
	cons := make([]project.Constraint, len(ws))
	for j, wj := range ws {
		total := 0.0
		for _, v := range wj {
			total += v
		}
		cons[j] = project.Constraint{W: wj, Lo: -balanceEps * total, Hi: balanceEps * total}
	}
	popt := project.Options{Method: project.AlternatingOneShot, Workers: probeWorkers}
	var projErr error
	t = timeProbe(rec, "project.project", func() {
		if err := project.Project(dst, x, cons, popt, nil); err != nil {
			projErr = err
		}
	})
	if projErr != nil {
		return nil, fmt.Errorf("projection probe: %w", projErr)
	}
	m["project.ns_per_coord"] = float64(t.Nanoseconds()) / float64(n)

	var bin bytes.Buffer
	if err := wire.Encode(&bin, g, nil); err != nil {
		return nil, err
	}
	var decErr error
	t = timeProbe(rec, "wire.decode", func() {
		if _, _, err := wire.Decode(bytes.NewReader(bin.Bytes())); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("decode probe: %w", decErr)
	}
	m["wire.decode_mb_per_s"] = float64(bin.Len()) / t.Seconds() / 1e6
	logf("decode probe: %.1f MiB binary body", float64(bin.Len())/(1<<20))

	var texts [][]byte
	textBytes := 0
	for _, v := range w.graphs {
		b := v.body
		if v.binary {
			var buf bytes.Buffer
			if err := mdbgp.WriteEdgeList(&buf, v.g); err != nil {
				return nil, err
			}
			b = buf.Bytes()
		}
		texts = append(texts, b)
		textBytes += len(b)
	}
	var parseErr error
	t = timeProbe(rec, "graph.parse", func() {
		for _, b := range texts {
			if err := mdbgp.ReadEdgeListInto(mdbgp.NewBuilder(0), bytes.NewReader(b), 0); err != nil {
				parseErr = err
			}
		}
	})
	if parseErr != nil {
		return nil, fmt.Errorf("parse probe: %w", parseErr)
	}
	m["graph.parse_mb_per_s"] = float64(textBytes) / t.Seconds() / 1e6
	logf("parse probe: %d text bodies, %.1f MiB", len(texts), float64(textBytes)/(1<<20))

	m["graph.hash_ms"] = ms(timeProbe(rec, "graph.hash", func() {
		for _, v := range w.graphs {
			v.g.HashString()
		}
	}))
	var valErr error
	m["graph.validate_ms"] = ms(timeProbe(rec, "graph.validate", func() {
		for _, v := range w.graphs {
			if err := v.g.Validate(); err != nil {
				valErr = err
			}
		}
	}))
	if valErr != nil {
		return nil, fmt.Errorf("validate probe: %w", valErr)
	}

	deltas := make([]*mdbgp.EdgeDelta, len(w.graphs))
	for i, v := range w.graphs {
		deltas[i], _ = perturb(v.g, rng)
	}
	m["graph.apply_delta_ms"] = ms(timeProbe(rec, "graph.apply_delta", func() {
		for i, v := range w.graphs {
			mdbgp.ApplyEdgeDelta(v.g, deltas[i])
		}
	}))
	var wErr error
	m["weights.standard_ms"] = ms(timeProbe(rec, "weights.standard", func() {
		for _, v := range w.graphs {
			if _, err := mdbgp.StandardWeights(v.g, w.dims...); err != nil {
				wErr = err
			}
		}
	}))
	if wErr != nil {
		return nil, fmt.Errorf("weights probe: %w", wErr)
	}

	wg := warm.op.ver.g
	asgn, err := parseAssignment(warm.assignment, wg.N(), warm.op.k)
	if err != nil {
		return nil, err
	}
	wws, err := mdbgp.StandardWeights(wg, w.dims...)
	if err != nil {
		return nil, err
	}
	m["partition.score_ms"] = ms(timeProbe(rec, "partition.score", func() {
		partition.EdgeLocality(wg, asgn)
		for _, wj := range wws {
			partition.Imbalance(asgn, wj)
		}
	}))

	stream, err := triadGBps(rec)
	if err != nil {
		return nil, err
	}
	m["vecmath.stream_gbps"] = stream
	m["vecmath.spmv_ceiling_frac"] = m["vecmath.spmv_gbps"] / stream
	return m, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// triadGBps measures the machine's memory-bandwidth ceiling in process: a
// STREAM-style triad a = b + s·c on probeWorkers goroutines, each array at
// least four times the last-level cache so the figure is DRAM bandwidth.
// Bytes are computed (24 per element), not counted by hardware.
func triadGBps(rec *recorder) (float64, error) {
	llc, err := lastLevelCache()
	if err != nil {
		return 0, err
	}
	n := int(4 * llc / 8)
	logf("triad probe: last-level cache %.0f MiB, three arrays of %.0f MiB each", float64(llc)/(1<<20), float64(8*n)/(1<<20))
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	defer debug.FreeOSMemory()
	for i := range b {
		b[i], c[i] = 1, 2
	}
	chunk := (n + probeWorkers - 1) / probeWorkers
	t := timeProbe(rec, "vecmath.triad", func() {
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					a[i] = b[i] + 3*c[i]
				}
			}()
		}
		wg.Wait()
	})
	if a[n-1] != 7 {
		return 0, fmt.Errorf("triad computed %v, want 7", a[n-1])
	}
	return 24 * float64(n) / t.Seconds() / 1e9, nil
}

// lastLevelCache returns the size in bytes of CPU 0's highest-level cache.
func lastLevelCache() (int64, error) {
	const dir = "/sys/devices/system/cpu/cpu0/cache"
	best, bestLevel := int64(0), 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("reading cache topology: %w", err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "index") {
			continue
		}
		lv, err1 := os.ReadFile(dir + "/" + e.Name() + "/level")
		sz, err2 := os.ReadFile(dir + "/" + e.Name() + "/size")
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		if level > bestLevel || (level == bestLevel && v*mult > best) {
			best, bestLevel = v*mult, level
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("no cache sizes under %s", dir)
	}
	return best, nil
}
