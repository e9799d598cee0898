package core

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mdbgp/internal/coarsen"
	"mdbgp/internal/gen"
	"mdbgp/internal/graph"
	"mdbgp/internal/obs"
	"mdbgp/internal/vecmath"
)

// TestKWayTraceMultiplexed covers the regression where PartitionK nulled the
// caller's Trace hook: every bisection of a k-way solve must now report,
// tagged with its recursion path.
func TestKWayTraceMultiplexed(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 400, Communities: 4, AvgDegree: 12, InFraction: 0.85, Seed: 5})
	ws := vertexEdgeWeights(g)
	for _, workers := range []int{1, 4} {
		opt := DefaultOptions()
		opt.Seed = 7
		opt.Iterations = 20
		opt.Workers = workers
		var mu sync.Mutex
		byPath := map[string]int{}
		opt.Trace = func(st IterStats) {
			mu.Lock()
			byPath[st.Path]++
			mu.Unlock()
		}
		if _, err := PartitionK(g, ws, 4, opt); err != nil {
			t.Fatal(err)
		}
		// k=4 recursive bisection: root split "" plus child splits "0", "1".
		for _, path := range []string{"", "0", "1"} {
			if byPath[path] == 0 {
				t.Fatalf("workers=%d: no IterStats for bisection path %q (got %v)", workers, path, byPath)
			}
		}
		if len(byPath) != 3 {
			t.Fatalf("workers=%d: unexpected paths %v", workers, byPath)
		}
	}
}

// TestSpanStructureDeterministicAcrossWorkers is the core half of the
// acceptance criterion: span names, nesting, order and attributes must be
// byte-identical at workers 1/2/8 for a fixed seed.
func TestSpanStructureDeterministicAcrossWorkers(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 600, Communities: 4, AvgDegree: 10, InFraction: 0.85, Seed: 11})
	ws := vertexEdgeWeights(g)
	structure := func(workers int) string {
		opt := DefaultOptions()
		opt.Seed = 3
		opt.Iterations = 25
		opt.Workers = workers
		root := obs.NewTrace("solve")
		opt.Span = root
		if _, err := PartitionK(g, ws, 5, opt); err != nil {
			t.Fatal(err)
		}
		root.End()
		return root.Snapshot().Structure()
	}
	ref := structure(1)
	if !strings.Contains(ref, "bisect") || !strings.Contains(ref, "gd{") || !strings.Contains(ref, "round{") {
		t.Fatalf("structure missing expected spans:\n%s", ref)
	}
	for _, workers := range []int{2, 8} {
		if got := structure(workers); got != ref {
			t.Fatalf("span structure differs between workers=1 and workers=%d:\n%s\nvs\n%s", workers, ref, got)
		}
	}
}

// TestBisectSpanStartsWithItsBranch checks that a bisect span's clock starts
// when its branch begins, not when the parent creates it: at workers=1 the
// branches run one after the other, so every right sibling must start no
// earlier than its left sibling ends.
func TestBisectSpanStartsWithItsBranch(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 600, Communities: 4, AvgDegree: 10, InFraction: 0.85, Seed: 11})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 3
	opt.Iterations = 25
	opt.Workers = 1
	root := obs.NewTrace("solve")
	opt.Span = root
	if _, err := PartitionK(g, ws, 8, opt); err != nil {
		t.Fatal(err)
	}
	root.End()
	pairs := 0
	root.Snapshot().Walk(func(v *obs.SpanView) {
		var kids []*obs.SpanView
		for _, c := range v.Children {
			if c.Name == "bisect" {
				kids = append(kids, c)
			}
		}
		if len(kids) != 2 {
			return
		}
		pairs++
		left, right := kids[0], kids[1]
		if leftEnd := left.StartUS + left.DurUS; right.StartUS < leftEnd {
			t.Fatalf("right bisect span starts at %dus, before its left sibling ends at %dus", right.StartUS, leftEnd)
		}
	})
	// k=8: the root's children and both k=4 nodes' children are pairs.
	if pairs != 3 {
		t.Fatalf("found %d sibling bisect pairs, want 3", pairs)
	}
}

// TestGDSpanConvergenceTelemetry checks the gd span carries the sampled
// trajectory and the derived convergence attributes, and that the round span
// reports repair moves.
func TestGDSpanConvergenceTelemetry(t *testing.T) {
	g := gen.CliqueChain(2, 20)
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 1
	root := obs.NewTrace("solve")
	opt.Span = root
	if _, err := Bisect(g, ws, opt); err != nil {
		t.Fatal(err)
	}
	root.End()
	v := root.Snapshot()

	var gd, round *obs.SpanView
	v.Walk(func(s *obs.SpanView) {
		switch s.Name {
		case "gd":
			gd = s
		case "round":
			round = s
		}
	})
	if gd == nil || round == nil {
		t.Fatalf("missing gd/round spans:\n%s", v.Structure())
	}
	final, ok := gd.Float("final_locality")
	if !ok || final <= 0 || final > 1 {
		t.Fatalf("final_locality = %v, %v", final, ok)
	}
	if _, ok := gd.Float("iters_to_90"); !ok {
		t.Fatal("iters_to_90 attr missing")
	}
	traj, _ := gd.Attrs["trajectory"].(string)
	if traj == "" || !strings.HasPrefix(traj, "0:") {
		t.Fatalf("trajectory attr = %q", traj)
	}
	if _, ok := round.Float("repair_moves"); !ok {
		t.Fatal("repair_moves attr missing")
	}
}

// TestConvSamplerMatchesExactLocality validates the O(n) locality sampling
// against the O(m) reference: at iteration t (t > 0, no noise) the sampler
// evaluates EL at z = x(t−1), which is exactly what the per-iteration Trace
// hook reports after iteration t−1. Vertex fixing is disabled so the
// frozen-contribution estimator is exact for the whole run (with fixing on,
// locked vertices contribute their lock-time value and the tail of the
// trajectory is a documented underestimate).
func TestConvSamplerMatchesExactLocality(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 800, Communities: 2, AvgDegree: 14, InFraction: 0.9, Seed: 9})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 4
	opt.Iterations = 48
	opt.VertexFixing = false
	opt.Workers = 3 // exercise the pooled reduction path of the sampler
	exact := map[int]float64{}
	opt.Trace = func(st IterStats) { exact[st.Iter] = st.ExpectedLocality }
	root := obs.NewTrace("solve")
	opt.Span = root
	if _, err := Bisect(g, ws, opt); err != nil {
		t.Fatal(err)
	}
	root.End()

	var traj string
	root.Snapshot().Walk(func(s *obs.SpanView) {
		if s.Name == "gd" {
			traj, _ = s.Attrs["trajectory"].(string)
		}
	})
	if traj == "" {
		t.Fatal("no trajectory recorded")
	}
	compared := 0
	for _, sample := range strings.Fields(traj) {
		it, loc, ok := strings.Cut(sample, ":")
		if !ok {
			t.Fatalf("malformed trajectory sample %q", sample)
		}
		iter, err := strconv.Atoi(it)
		if err != nil {
			t.Fatal(err)
		}
		got, err := strconv.ParseFloat(loc, 64)
		if err != nil {
			t.Fatal(err)
		}
		if iter == 0 {
			continue // t=0 samples the noisy start, which Trace never sees
		}
		want, ok := exact[iter-1]
		if !ok {
			continue
		}
		// Tolerance covers summation-order differences plus the %.6f
		// rounding of the trajectory attribute.
		if math.Abs(got-want) > 1e-4 {
			t.Fatalf("sampled locality at iter %d = %v, exact = %v", iter, got, want)
		}
		compared++
	}
	if compared < 2 {
		t.Fatalf("only %d trajectory samples compared against the exact reference", compared)
	}
}

// TestConvFinalLocalityExact: the final_locality attribute is not read off
// the estimated trajectory — it is an exact quadratic-form pass over the
// fractional solution, and must match the O(m) reference bit-for-bit up to
// summation order, with vertex fixing on (the default).
func TestConvFinalLocalityExact(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 800, Communities: 2, AvgDegree: 14, InFraction: 0.9, Seed: 9})
	ws := vertexEdgeWeights(g)
	wg := coarsen.Wrap(g, ws)
	opt := DefaultOptions()
	opt.Seed = 4
	opt.Iterations = 48
	opt.Workers = 3
	root := obs.NewTrace("solve")
	opt.Span = root
	x, _, err := OptimizeWeighted(wg, opt)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	var got float64
	ok := false
	root.Snapshot().Walk(func(s *obs.SpanView) {
		if s.Name == "gd" {
			got, ok = s.Float("final_locality")
		}
	})
	if !ok {
		t.Fatal("gd span lacks final_locality")
	}
	want := vecmath.ExpectedLocalityWeighted(wg.Offsets, wg.Adj, wg.EW, x)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("final_locality = %v, exact EL(x) = %v", got, want)
	}
}

// TestSpanDoesNotChangeResult: tracing must be a pure observer — the
// partition with a span attached is bit-identical to one without.
func TestSpanDoesNotChangeResult(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 500, Communities: 3, AvgDegree: 10, InFraction: 0.85, Seed: 13})
	ws := vertexEdgeWeights(g)
	run := func(withSpan bool) []int32 {
		opt := DefaultOptions()
		opt.Seed = 6
		opt.Iterations = 20
		if withSpan {
			opt.Span = obs.NewTrace("solve")
		}
		asgn, err := PartitionK(g, ws, 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		return asgn.Parts
	}
	plain, traced := run(false), run(true)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("tracing changed the partition at vertex %d", i)
		}
	}
}

// TestConvSamplerZeroEdges: a graph with no edges must sample locality 1
// without dividing by zero.
func TestConvSamplerZeroEdges(t *testing.T) {
	g := graph.NewBuilder(16).Build()
	w := make([]float64, 16)
	for i := range w {
		w[i] = 1
	}
	wg := coarsen.Wrap(g, [][]float64{w})
	c := newConvSampler(wg, 10, vecmath.NewPool(1))
	if !c.wantSample(0) {
		t.Fatal("iteration 0 must be sampled")
	}
	c.record(0, 0)
	if len(c.locs) != 1 || c.locs[0] != 1 {
		t.Fatalf("zero-edge sample = %v", c.locs)
	}
}
