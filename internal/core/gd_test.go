package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mdbgp/internal/coarsen"
	"mdbgp/internal/gen"
	"mdbgp/internal/graph"
	"mdbgp/internal/partition"
	"mdbgp/internal/project"
	"mdbgp/internal/weights"
)

func vertexEdgeWeights(g *graph.Graph) [][]float64 {
	ws, err := weights.Standard(g, 2)
	if err != nil {
		panic(err)
	}
	return ws
}

func TestBisectCliqueChain(t *testing.T) {
	// Two 20-cliques joined by one bridge: the optimal bisection cuts only
	// the bridge.
	g := gen.CliqueChain(2, 20)
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 1
	res, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	loc := partition.EdgeLocality(g, res.Assignment)
	if loc < 0.99 {
		t.Fatalf("clique chain locality %.4f, want ~1 (only bridge cut)", loc)
	}
	if !partition.IsBalanced(res.Assignment, ws, opt.Epsilon+1e-9) {
		t.Fatalf("not ε-balanced: vertex imbalance %.4f edge imbalance %.4f",
			partition.Imbalance(res.Assignment, ws[0]), partition.Imbalance(res.Assignment, ws[1]))
	}
}

func TestBisectSBMRecoversCommunities(t *testing.T) {
	g, blocks := gen.SBM(gen.SBMConfig{N: 1000, Communities: 2, AvgDegree: 16, InFraction: 0.9, Seed: 2})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 3
	res, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	loc := partition.EdgeLocality(g, res.Assignment)
	if loc < 0.75 {
		t.Fatalf("SBM locality %.4f, want >= 0.75 (hash gives 0.5)", loc)
	}
	// The found sides should mostly agree with the planted blocks (up to
	// relabeling).
	agree := 0
	for v, b := range blocks {
		if int32(res.Assignment.Parts[v]) == b {
			agree++
		}
	}
	frac := float64(agree) / float64(len(blocks))
	if frac < 0.5 {
		frac = 1 - frac
	}
	if frac < 0.85 {
		t.Fatalf("planted-block agreement %.3f, want >= 0.85", frac)
	}
}

func TestBisectDeterminism(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 400, Communities: 2, AvgDegree: 10, InFraction: 0.85, Seed: 4})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 99
	r1, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.Assignment.Parts {
		if r1.Assignment.Parts[v] != r2.Assignment.Parts[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestBisectSkewedDegreeTwoDimBalance(t *testing.T) {
	// Heavy power-law graph: vertex balance and edge balance fight each
	// other; GD must satisfy both.
	g := gen.ChungLu(1500, 14, 1.6, 5)
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 6
	res, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	vi := partition.Imbalance(res.Assignment, ws[0])
	ei := partition.Imbalance(res.Assignment, ws[1])
	if vi > opt.Epsilon+1e-9 || ei > opt.Epsilon+1e-9 {
		t.Fatalf("imbalance vertex=%.4f edge=%.4f, want <= %.3f", vi, ei, opt.Epsilon)
	}
}

func TestBisectAsymmetricTarget(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 900, Communities: 3, AvgDegree: 12, InFraction: 0.85, Seed: 7})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 8
	opt.TargetFraction = 2.0 / 3.0
	res, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	loads := partition.Loads(res.Assignment, ws[0])
	frac := loads[0] / (loads[0] + loads[1])
	// |Σwx − sW| ≤ εW ⇒ part-0 fraction within α ± ε/2.
	if math.Abs(frac-2.0/3.0) > opt.Epsilon/2+1e-9 {
		t.Fatalf("part-0 fraction %.4f, want 0.667 ± %.3f", frac, opt.Epsilon/2)
	}
}

func TestBisectTrace(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 300, Communities: 2, AvgDegree: 8, InFraction: 0.8, Seed: 9})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Iterations = 25
	opt.Seed = 10
	var stats []IterStats
	opt.Trace = func(s IterStats) { stats = append(stats, s) }
	if _, err := Bisect(g, ws, opt); err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 || len(stats) > 25 {
		t.Fatalf("trace called %d times, want 1..25", len(stats))
	}
	first := stats[0]
	if first.ExpectedLocality < 0.3 || first.ExpectedLocality > 0.75 {
		t.Fatalf("first-iteration locality %.3f, want ≈ 0.5", first.ExpectedLocality)
	}
	last := stats[len(stats)-1]
	if last.ExpectedLocality < first.ExpectedLocality {
		t.Fatalf("locality decreased: %.3f -> %.3f", first.ExpectedLocality, last.ExpectedLocality)
	}
	for _, s := range stats {
		if s.ExpectedLocality < 0 || s.ExpectedLocality > 1 || math.IsNaN(s.MaxImbalance) {
			t.Fatalf("bad stats %+v", s)
		}
	}
}

func TestBisectVertexFixingProgress(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 500, Communities: 2, AvgDegree: 12, InFraction: 0.9, Seed: 11})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 12
	var lastFixed int
	opt.Trace = func(s IterStats) { lastFixed = s.Fixed }
	res, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if lastFixed == 0 {
		t.Fatal("vertex fixing never fixed anything on a well-separated SBM")
	}
	if !partition.IsBalanced(res.Assignment, ws, opt.Epsilon+1e-9) {
		t.Fatal("fixing broke ε-balance")
	}
}

func TestBisectNonAdaptive(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 400, Communities: 2, AvgDegree: 10, InFraction: 0.85, Seed: 13})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Adaptive = false
	opt.VertexFixing = false
	opt.Seed = 14
	res, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if loc := partition.EdgeLocality(g, res.Assignment); loc <= 0.5 {
		t.Fatalf("nonadaptive locality %.3f, want > 0.5", loc)
	}
}

func TestBisectExactProjection(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 300, Communities: 2, AvgDegree: 10, InFraction: 0.85, Seed: 15})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Projection = project.Options{Method: project.Exact}
	opt.Seed = 16
	res, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !partition.IsBalanced(res.Assignment, ws, opt.Epsilon+1e-9) {
		t.Fatal("exact projection result not balanced")
	}
	if loc := partition.EdgeLocality(g, res.Assignment); loc < 0.7 {
		t.Fatalf("exact projection locality %.3f", loc)
	}
}

func TestBisectEdgeCases(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if _, err := Bisect(empty, [][]float64{{}}, DefaultOptions()); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	single := graph.NewBuilder(1).Build()
	res, err := Bisect(single, [][]float64{{1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment.Parts) != 1 {
		t.Fatal("single vertex")
	}
	edgeless := graph.NewBuilder(10).Build()
	ws := [][]float64{{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}}
	opt := DefaultOptions()
	opt.Epsilon = 0.2
	opt.Seed = 17
	res, err = Bisect(edgeless, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !partition.IsBalanced(res.Assignment, ws, 0.21) {
		t.Fatalf("edgeless graph not balanced: sizes %v", res.Assignment.PartSizes())
	}
}

func TestBisectErrors(t *testing.T) {
	g := gen.Grid(3, 3, false)
	if _, err := Bisect(g, nil, DefaultOptions()); err == nil {
		t.Fatal("no weights should error")
	}
	if _, err := Bisect(g, [][]float64{{1, 1}}, DefaultOptions()); err == nil {
		t.Fatal("wrong length should error")
	}
	bad := make([]float64, 9)
	for i := range bad {
		bad[i] = 1
	}
	bad[4] = 0
	if _, err := Bisect(g, [][]float64{bad}, DefaultOptions()); err == nil {
		t.Fatal("zero weight should error")
	}
}

func TestPartitionK4SBM(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 1200, Communities: 4, AvgDegree: 14, InFraction: 0.9, Seed: 18})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 19
	asgn, err := PartitionK(g, ws, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := asgn.Validate(); err != nil {
		t.Fatal(err)
	}
	if asgn.K != 4 {
		t.Fatalf("K=%d", asgn.K)
	}
	if !partition.IsBalanced(asgn, ws, opt.Epsilon+0.02) {
		t.Fatalf("4-way not balanced: max imbalance %.4f", partition.MaxImbalance(asgn, ws))
	}
	if loc := partition.EdgeLocality(g, asgn); loc < 0.6 {
		t.Fatalf("4-way locality %.3f (hash would give 0.25)", loc)
	}
}

func TestPartitionKNonPowerOfTwo(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 900, Communities: 3, AvgDegree: 12, InFraction: 0.85, Seed: 20})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 21
	asgn, err := PartitionK(g, ws, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	sizes := asgn.PartSizes()
	for p, s := range sizes {
		if s == 0 {
			t.Fatalf("part %d empty: %v", p, sizes)
		}
	}
	if im := partition.Imbalance(asgn, ws[0]); im > 0.1 {
		t.Fatalf("3-way vertex imbalance %.4f", im)
	}
}

func TestPartitionKEdgeCases(t *testing.T) {
	g := gen.Grid(4, 4, false)
	ws := vertexEdgeWeights(g)
	if _, err := PartitionK(g, ws, 0, DefaultOptions()); err == nil {
		t.Fatal("k=0 should error")
	}
	asgn, err := PartitionK(g, ws, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range asgn.Parts {
		if p != 0 {
			t.Fatal("k=1 should assign everything to part 0")
		}
	}
	// k > n: parts may be empty but the call must succeed and be valid.
	asgn, err = PartitionK(g, ws, 32, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := asgn.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionKFarAboveNSkipsEmptySubgraphs: at k = 2^20 on 16 vertices
// the recursion never bisects an empty subgraph, so it makes at most
// n·⌈log2 k⌉ bisections.
func TestPartitionKFarAboveNSkipsEmptySubgraphs(t *testing.T) {
	g := gen.Grid(4, 4, false)
	ws := vertexEdgeWeights(g)
	const k, levels = 1 << 20, 20
	calls, empty := 0, 0
	opt := DefaultOptions()
	opt.Workers = 1 // serial, so the counters need no lock
	asgn, err := PartitionKWith(g, ws, k, opt, func(sub *graph.Graph, ws [][]float64, o Options) (*Result, error) {
		calls++
		if sub.N() == 0 {
			empty++
		}
		return Bisect(sub, ws, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := asgn.Validate(); err != nil {
		t.Fatal(err)
	}
	if empty > 0 || calls > g.N()*levels {
		t.Fatalf("%d bisections, %d of them of empty subgraphs; want at most %d, none empty", calls, empty, g.N()*levels)
	}
}

func TestRepairBalanceDirect(t *testing.T) {
	g := gen.ErdosRenyi(400, 1600, 22)
	ws := vertexEdgeWeights(g)
	n := g.N()
	side := make([]int8, n)
	x := make([]float64, n)
	for i := range side {
		side[i] = 1 // grossly unbalanced start
	}
	totals := make([]float64, len(ws))
	for j, w := range ws {
		for _, v := range w {
			totals[j] += v
		}
	}
	targets := []float64{0, 0}
	halves := []float64{0.05 * totals[0], 0.05 * totals[1]}
	rng := rand.New(rand.NewSource(23))
	moves := repairBalance(coarsen.Wrap(g, ws), side, x, targets, halves, totals, rng)
	if moves == 0 {
		t.Fatal("repair did nothing on an all-ones assignment")
	}
	for j, w := range ws {
		v := 0.0
		for i, wi := range w {
			v += wi * float64(side[i])
		}
		if math.Abs(v) > halves[j]+1e-9 {
			t.Fatalf("dim %d not repaired: |%g| > %g", j, v, halves[j])
		}
	}
}

func TestRepairBalanceUnattainableTerminates(t *testing.T) {
	// Three vertices of weight 10 cannot be split within ε=1%: the repair
	// must terminate anyway.
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	ws := [][]float64{{10, 10, 10}}
	side := []int8{1, 1, 1}
	x := make([]float64, 3)
	rng := rand.New(rand.NewSource(24))
	repairBalance(coarsen.Wrap(g, ws), side, x, []float64{0}, []float64{0.3}, []float64{30}, rng)
	// No assertion on balance — only termination (the test would time out
	// otherwise) and validity of sides.
	for _, s := range side {
		if s != 1 && s != -1 {
			t.Fatal("invalid side")
		}
	}
}

// Property: on arbitrary random graphs GD returns a valid, ε-balanced
// 2-partition for a generous ε.
func TestQuickBisectBalanced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 50
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		ws := vertexEdgeWeights(g)
		opt := DefaultOptions()
		opt.Iterations = 30
		opt.Epsilon = 0.1
		opt.Seed = seed
		res, err := Bisect(g, ws, opt)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Assignment.Validate() != nil {
			return false
		}
		return partition.IsBalanced(res.Assignment, ws, 0.1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBisectTinyEpsilonTerminates(t *testing.T) {
	// ε far below what rounding noise can hit: the algorithm must still
	// terminate and return a valid assignment (repair caps its moves).
	g, _ := gen.SBM(gen.SBMConfig{N: 300, Communities: 2, AvgDegree: 8, InFraction: 0.8, Seed: 40})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Epsilon = 1e-6
	opt.Iterations = 20
	opt.Seed = 41
	res, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	// Not asserting ε-balance at 1e-6 — only that the near-balance is sane.
	if im := partition.MaxImbalance(res.Assignment, ws); im > 0.1 {
		t.Fatalf("tiny-eps run wildly unbalanced: %.4f", im)
	}
}

func TestBisectDisconnectedGraph(t *testing.T) {
	// Two components of different sizes plus isolated vertices.
	b := graph.NewBuilder(60)
	for i := 0; i < 30; i++ {
		b.AddEdge(i, (i+1)%30)
	}
	for i := 30; i < 50; i++ {
		b.AddEdge(i, 30+(i-29)%20)
	}
	g := b.Build()
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Epsilon = 0.1
	opt.Seed = 42
	res, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !partition.IsBalanced(res.Assignment, ws, 0.1+1e-9) {
		t.Fatalf("disconnected graph imbalance %.4f", partition.MaxImbalance(res.Assignment, ws))
	}
}

func TestPartitionKDisconnected(t *testing.T) {
	// k greater than the number of components still must produce a valid,
	// roughly balanced partition.
	b := graph.NewBuilder(0)
	for c := 0; c < 3; c++ {
		base := c * 40
		for i := 0; i < 39; i++ {
			b.AddEdge(base+i, base+i+1)
		}
	}
	g := b.Build()
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Epsilon = 0.15
	opt.Seed = 43
	asgn, err := PartitionK(g, ws, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := asgn.Validate(); err != nil {
		t.Fatal(err)
	}
	for p, s := range asgn.PartSizes() {
		if s == 0 {
			t.Fatalf("part %d empty on disconnected graph", p)
		}
	}
}

func TestDefaultOptionsNormalization(t *testing.T) {
	var o Options
	o.normalize()
	if o.Epsilon != 0.05 || o.Iterations != 100 || o.StepLength != 2 ||
		o.FixThreshold != 0.99 || o.TargetFraction != 0.5 {
		t.Fatalf("normalized zero options: %+v", o)
	}
	if o.NoiseScale != 0.02 {
		t.Fatalf("noise scale %g, want 0.02", o.NoiseScale)
	}
}
