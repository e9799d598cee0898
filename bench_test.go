// Benchmarks: one per table and figure of the paper's evaluation section.
// Each benchmark executes the corresponding experiment end to end on
// 16×-reduced datasets (the full paper-analog scale is run by
// cmd/experiments -scale full; see EXPERIMENTS.md for those results).
//
// Kernel microbenches for the gradient step and the projection algorithms
// follow at the end.
package mdbgp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mdbgp/internal/coarsen"
	"mdbgp/internal/core"
	"mdbgp/internal/experiments"
	"mdbgp/internal/gen"
	"mdbgp/internal/graph"
	"mdbgp/internal/multilevel"
	"mdbgp/internal/partition"
	"mdbgp/internal/project"
	"mdbgp/internal/reorder"
	"mdbgp/internal/vecmath"
	"mdbgp/internal/weights"
)

// runExperiment executes a registered experiment at 16× dataset reduction.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(16, 42, nil)
		e, err := experiments.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		tables, err := e.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", name)
		}
	}
}

// BenchmarkFig1PageRankHistogram regenerates Figure 1: per-worker PageRank
// iteration times under the four partitioning policies on 16 workers.
func BenchmarkFig1PageRankHistogram(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig4Imbalance regenerates Figure 4: vertex and edge imbalance of
// Spinner, BLP and SHP on the public networks, k ∈ {2, 8}.
func BenchmarkFig4Imbalance(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5LocalityPublic regenerates Figure 5: edge locality of Hash,
// BLP and GD on the public networks, k ∈ {2, 8}.
func BenchmarkFig5LocalityPublic(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6LocalityFB regenerates Figure 6: edge locality on the
// Facebook friendship analogs, k ∈ {16, 128}.
func BenchmarkFig6LocalityFB(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7GiraphSpeedup regenerates Figure 7: PR/CC/MF/HC speedups
// over hash for 1-D and 2-D partitionings on the small and large configs.
func BenchmarkFig7GiraphSpeedup(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkTable2PageRankDetail regenerates Table 2: per-superstep runtime
// and communication statistics of PageRank on fb400 across 128 workers.
func BenchmarkTable2PageRankDetail(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig8StepLength regenerates Figure 8: locality vs iteration for
// step lengths {1, 2, 5, 10}·√n/100.
func BenchmarkFig8StepLength(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Adaptivity regenerates Figure 9: nonadaptive vs adaptive vs
// adaptive+vertex-fixing GD.
func BenchmarkFig9Adaptivity(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10Projection regenerates Figure 10: exact projection at
// ε ∈ {0.1, 0.01, 0.001} vs one-shot alternating projection.
func BenchmarkFig10Projection(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11Scalability regenerates Figure 11: GD running time across
// the graph size ladder (linear in |E|).
func BenchmarkFig11Scalability(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkTable3MetisComparison regenerates Table 3: GD vs the multilevel
// multi-constraint partitioner for d ∈ {2, 3, 4}.
func BenchmarkTable3MetisComparison(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig15to17StackOverflow regenerates the Appendix C.2 figures on
// the sx-stackoverflow analog.
func BenchmarkFig15to17StackOverflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(16, 42, nil)
		for _, name := range []string{"fig15", "fig16", "fig17"} {
			e, err := experiments.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblations runs the component-ablation study (repair, noise,
// projection variants, vertex fixing, direct vs recursive k-way).
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations") }

// --- Kernel microbenches -------------------------------------------------

func benchGraph() (*Graph, [][]float64) {
	g, _ := gen.SBM(gen.SBMConfig{
		N: 50000, Communities: 16, AvgDegree: 20, InFraction: 0.6,
		DegreeExponent: 2, Seed: 9,
	})
	ws, _ := weights.Standard(g, 2)
	return g, ws
}

// BenchmarkSpMV measures the gradient step Ax, the dominant per-iteration
// cost of GD (Theorem 1.1: O(|E|) per step).
func BenchmarkSpMV(b *testing.B) {
	g, _ := benchGraph()
	x := make([]float64, g.N())
	dst := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i%3) - 1
	}
	b.SetBytes(8 * g.DirectedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecmath.SpMV(g, x, dst)
	}
}

// benchWorkerCounts is the worker sweep of the parallel benchmarks; the
// speedup trajectory across this ladder reproduces the Fig. 11-style
// scalability story on multicore hardware.
var benchWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkSpMVParallel measures the sharded CSR SpMV gradient step across
// worker counts (O(|E|/m) per step on m workers, Theorem 1.1).
func BenchmarkSpMVParallel(b *testing.B) {
	g, _ := benchGraph()
	x := make([]float64, g.N())
	dst := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i%3) - 1
	}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := vecmath.NewPool(w)
			b.SetBytes(8 * g.DirectedSize())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vecmath.SpMVPool(g, x, dst, pool)
			}
		})
	}
}

// BenchmarkProjectionParallel measures the one-shot alternating projection
// (the paper's default inside GD iterations) across worker counts.
func BenchmarkProjectionParallel(b *testing.B) {
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchProjectionWorkers(b, 2, project.AlternatingOneShot, w)
		})
	}
}

// BenchmarkProjectionExact1D measures the O(n log n) exact single-slab
// projection.
func BenchmarkProjectionExact1D(b *testing.B) {
	benchProjection(b, 1, project.Exact)
}

// BenchmarkProjectionExact2D measures the strip-bisection + region-walk
// exact projection of Appendix A.2.
func BenchmarkProjectionExact2D(b *testing.B) {
	benchProjection(b, 2, project.Exact)
}

// BenchmarkProjectionOneShot measures the paper's default one-shot
// alternating projection.
func BenchmarkProjectionOneShot(b *testing.B) {
	benchProjection(b, 2, project.AlternatingOneShot)
}

// BenchmarkProjectionDykstra measures Dykstra's algorithm to convergence.
func BenchmarkProjectionDykstra(b *testing.B) {
	benchProjection(b, 2, project.DykstraMethod)
}

func benchProjection(b *testing.B, d int, m project.Method) {
	b.Helper()
	benchProjectionWorkers(b, d, m, 1)
}

func benchProjectionWorkers(b *testing.B, d int, m project.Method, workers int) {
	b.Helper()
	n := 50000
	rng := rand.New(rand.NewSource(11))
	y := make([]float64, n)
	for i := range y {
		y[i] = rng.NormFloat64() * 1.5
	}
	cons := make([]project.Constraint, d)
	for j := range cons {
		w := make([]float64, n)
		total := 0.0
		for i := range w {
			w[i] = rng.Float64()*2 + 0.05
			total += w[i]
		}
		cons[j] = project.Constraint{W: w, Lo: -0.01 * total, Hi: 0.01 * total}
	}
	dst := make([]float64, n)
	st := &project.State{}
	opt := project.Options{Method: m, Center: true, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := project.Project(dst, y, cons, opt, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGDBisect measures a full 100-iteration GD bisection on a 50k /
// 500k synthetic social graph (the unit of Figure 11's scaling ladder).
func BenchmarkGDBisect(b *testing.B) {
	g, ws := benchGraph()
	opt := core.DefaultOptions()
	opt.Seed = 42
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Bisect(g, ws, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGDBisectParallel measures the full GD bisection across worker
// counts on the 50k-vertex benchmark graph. The partition is bit-identical
// at every worker count (see TestBisectDeterministicAcrossWorkers), so the
// sweep isolates pure engine speedup.
func BenchmarkGDBisectParallel(b *testing.B) {
	g, ws := benchGraph()
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Seed = 42
			opt.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Bisect(g, ws, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKWayRecursiveParallel adds concurrent sibling bisection on top
// of the parallel kernels (k=8 gives up to 4 concurrent leaf bisections).
func BenchmarkKWayRecursiveParallel(b *testing.B) {
	g, ws := benchGraph()
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Seed = 42
			opt.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.PartitionK(g, ws, 8, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKWayRecursive and BenchmarkKWayDirect compare the two k-way
// strategies of §3.3: recursive bisection (O(|E|) per iteration, log k
// rounds) against the direct O(k·|E|)-per-iteration relaxation.
func BenchmarkKWayRecursive(b *testing.B) {
	g, ws := benchGraph()
	opt := core.DefaultOptions()
	opt.Seed = 42
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PartitionK(g, ws, 8, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKWayDirect(b *testing.B) {
	g, ws := benchGraph()
	opt := core.DefaultDirectKOptions()
	opt.Seed = 42
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DirectKWay(g, ws, 8, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Multilevel benches --------------------------------------------------

// benchMLGraph is the multilevel benchmark instance: ≥ 500k edges with the
// tight-community structure of real social networks (the regime the V-cycle
// targets; see internal/multilevel). m = 573104 at these parameters.
func benchMLGraph() (*Graph, [][]float64) {
	g, _ := gen.SBM(gen.SBMConfig{
		N: 100000, Communities: 4000, AvgDegree: 14, InFraction: 0.8, Seed: 17,
	})
	ws, _ := weights.Standard(g, 2)
	return g, ws
}

// BenchmarkMultilevelBisect measures the V-cycle bisection end to end
// (hierarchy construction, coarsest solve, warm-started refinement,
// rounding) and reports the achieved uncut fraction.
func BenchmarkMultilevelBisect(b *testing.B) {
	g, ws := benchMLGraph()
	opt := core.DefaultOptions()
	opt.Seed = 42
	b.SetBytes(8 * g.DirectedSize())
	b.ResetTimer()
	var loc float64
	for i := 0; i < b.N; i++ {
		res, err := multilevel.Bisect(g, ws, multilevel.Options{GD: opt})
		if err != nil {
			b.Fatal(err)
		}
		loc = partition.EdgeLocality(g, res.Assignment)
	}
	b.ReportMetric(loc, "locality")
	b.ReportMetric(float64(g.M()), "edges")
}

// BenchmarkMultilevelVsDirect runs direct GD and multilevel GD back to back
// on the same ≥ 500k-edge graph and reports the acceptance metrics of the
// multilevel milestone: both uncut fractions, their gap, and the speedup.
// cmd/benchjson turns the output into BENCH_multilevel.json.
func BenchmarkMultilevelVsDirect(b *testing.B) {
	g, ws := benchMLGraph()
	opt := core.DefaultOptions()
	opt.Seed = 42
	b.ResetTimer()
	var direct, ml float64
	var directSecs, mlSecs float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		dres, err := core.Bisect(g, ws, opt)
		if err != nil {
			b.Fatal(err)
		}
		directSecs += time.Since(start).Seconds()
		direct = partition.EdgeLocality(g, dres.Assignment)

		start = time.Now()
		mres, err := multilevel.Bisect(g, ws, multilevel.Options{GD: opt})
		if err != nil {
			b.Fatal(err)
		}
		mlSecs += time.Since(start).Seconds()
		ml = partition.EdgeLocality(g, mres.Assignment)
	}
	b.ReportMetric(float64(g.M()), "edges")
	b.ReportMetric(direct, "locality_direct")
	b.ReportMetric(ml, "locality_multilevel")
	b.ReportMetric(direct-ml, "locality_gap")
	b.ReportMetric(directSecs/float64(b.N)*1e3, "direct_ms")
	b.ReportMetric(mlSecs/float64(b.N)*1e3, "multilevel_ms")
	b.ReportMetric(directSecs/mlSecs, "speedup")
}

// --- Kernel roofline benches ---------------------------------------------
//
// BenchmarkKernels measures achieved memory bandwidth (GB/s) for the hot
// kernels of the GD iteration — the SpMV gradient step in its plain, masked,
// weighted, register-blocked, free-row-list and reordered-layout forms, plus the one-shot
// projection — on the 573k-edge multilevel benchmark graph. cmd/benchjson
// turns the output into BENCH_kernels.json and CI gates the floors with
// cmd/benchgate (see .github/workflows/ci.yml, kernels-bench job).

// benchKernelGraph is benchMLGraph under a random vertex relabeling: same
// topology (m = 573104 undirected), but arbitrary ingest ids, modeling real
// edge lists whose numbering carries no locality. This is the regime vertex
// reordering exists for; on the unshuffled SBM ids the ordering is already
// near-optimal and every kernel runs at the roofline.
func benchKernelGraph() *Graph {
	g, _ := gen.SBM(gen.SBMConfig{
		N: 100000, Communities: 4000, AvgDegree: 14, InFraction: 0.8, Seed: 17,
	})
	rng := rand.New(rand.NewSource(99))
	label := rng.Perm(g.N())
	nb := graph.NewBuilder(g.N())
	g.EachEdge(func(u, v int) bool {
		nb.AddEdge(label[u], label[v])
		return true
	})
	return nb.Build()
}

func BenchmarkKernels(b *testing.B) {
	g := benchKernelGraph()
	offsets, adj := g.CSR()
	n, nnz := g.N(), int(g.DirectedSize())
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, n)
	fixed := make([]bool, n)
	for i := range fixed {
		fixed[i] = i%16 == 0
	}
	ew := make([]float64, nnz)
	for i := range ew {
		ew[i] = 1
	}
	pool := vecmath.NewPool(1)
	// One SpMV touches the arc targets (4B) and gathered x values (8B) per
	// arc, plus the offsets array and a read+write pass over the vectors.
	spmvBytes := float64(12*nnz + 16*n + 8*(n+1))

	layDeg := reorder.NewLayout(offsets, adj, nil, reorder.Degree)
	layRCM := reorder.NewLayout(offsets, adj, nil, reorder.RCM)

	// Float32 variants gather 4B x values instead of 8B — the Kernel32 option's
	// bandwidth claim. The iterate converts once per call (the conversion is
	// part of the measured work, as it is per iteration in production).
	x32 := make([]float32, n)
	spmv32Bytes := float64(8*nnz + 12*n + 8*(n+1))

	gbps := func(bytes float64, fn func()) float64 {
		fn() // warm caches and pool
		const reps = 12
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return bytes * reps / time.Since(start).Seconds() / 1e9
	}

	// The free-set kernel computes exactly the rows the masked kernel does,
	// and its measured work includes the fused gradient norm; it is charged
	// the same bytes as spmv_masked_gbps so the two compare directly.
	var free []int32
	for i, f := range fixed {
		if !f {
			free = append(free, int32(i))
		}
	}

	var plain, masked, weighted, blocked, freeRows, layoutDeg, layoutRCM, proj float64
	var spmv32, blocked32 float64
	projBytes := float64(8 * n * 4) // y, dst, and two constraint weight rows
	py := make([]float64, n)
	copy(py, x)
	pdst := make([]float64, n)
	cons := make([]project.Constraint, 2)
	for j := range cons {
		w := make([]float64, n)
		total := 0.0
		for i := range w {
			w[i] = rng.Float64()*2 + 0.05
			total += w[i]
		}
		cons[j] = project.Constraint{W: w, Lo: -0.01 * total, Hi: 0.01 * total}
	}
	st := &project.State{}
	popt := project.Options{Method: project.AlternatingOneShot, Center: true, Workers: 1}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain = gbps(spmvBytes, func() { vecmath.SpMVWeightedMaskedPool(offsets, adj, nil, x, dst, nil, pool) })
		masked = gbps(spmvBytes, func() { vecmath.SpMVWeightedMaskedPool(offsets, adj, nil, x, dst, fixed, pool) })
		weighted = gbps(spmvBytes, func() { vecmath.SpMVWeightedMaskedPool(offsets, adj, ew, x, dst, nil, pool) })
		blocked = gbps(spmvBytes, func() { vecmath.SpMVBlockedPool(offsets, adj, nil, x, dst, nil, pool) })
		freeRows = gbps(spmvBytes, func() { vecmath.SpMVRowsPool(offsets, adj, nil, x, dst, free, false, pool) })
		layoutDeg = gbps(spmvBytes, func() { layDeg.SpMVMasked(x, dst, nil, pool) })
		layoutRCM = gbps(spmvBytes, func() { layRCM.SpMVMasked(x, dst, nil, pool) })
		spmv32 = gbps(spmv32Bytes, func() {
			vecmath.Convert32Pool(x32, x, pool)
			vecmath.SpMV32WeightedMaskedPool(offsets, adj, nil, x32, dst, nil, pool)
		})
		blocked32 = gbps(spmv32Bytes, func() {
			vecmath.Convert32Pool(x32, x, pool)
			vecmath.SpMVBlocked32Pool(offsets, adj, nil, x32, dst, nil, pool)
		})
		proj = gbps(projBytes, func() {
			if err := project.Project(pdst, py, cons, popt, st); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.ReportMetric(float64(nnz), "arcs")
	b.ReportMetric(plain, "spmv_gbps")
	b.ReportMetric(masked, "spmv_masked_gbps")
	b.ReportMetric(weighted, "spmv_weighted_gbps")
	b.ReportMetric(blocked, "spmv_blocked_gbps")
	b.ReportMetric(freeRows, "spmv_free_gbps")
	b.ReportMetric(layoutDeg, "spmv_layout_degree_gbps")
	b.ReportMetric(layoutRCM, "spmv_layout_rcm_gbps")
	b.ReportMetric(spmv32, "spmv32_gbps")
	b.ReportMetric(blocked32, "spmv32_blocked_gbps")
	b.ReportMetric(proj, "projection_gbps")
	// The headline claim: the register-blocked kernel over the degree-sorted
	// layout — the exact production path selected by Options.Reorder — against
	// the plain kernel on the ingest-order CSR, both bit-identical results.
	b.ReportMetric(layoutDeg/plain, "blocked_speedup")
	b.ReportMetric(float64(reorder.Bandwidth(offsets, adj)), "bandwidth_ingest")
	b.ReportMetric(float64(layRCM.Bandwidth()), "bandwidth_rcm")
}

// BenchmarkPrepAmortization measures what the server's prep-artifact cache
// buys on repeat solves of the same graph: a cold multilevel solve (hierarchy
// coarsening + reorder layout built inside the engine) against a warm one
// with both artifacts injected via Options.PrepLayout/PrepHierarchy — the
// exact path internal/prep serves on a cache hit. The warm and cold solves
// must be byte-identical (injection amortizes work, never changes bits);
// the speedup floor is gated in CI (kernels-bench job).
func BenchmarkPrepAmortization(b *testing.B) {
	g, _ := benchMLGraph()
	opts := Options{K: 2, Seed: 42, Engine: "multilevel", Reorder: "degree"}.Canonical()

	buildPrep := func() (*PreparedLayout, *PreparedHierarchy) {
		pl, err := PrepareLayout(g, opts.Reorder)
		if err != nil {
			b.Fatal(err)
		}
		ph, err := PrepareHierarchy(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		return pl, ph
	}
	warmed := func(pl *PreparedLayout, ph *PreparedHierarchy) Options {
		o := opts
		o.PrepLayout, o.PrepHierarchy = pl, ph
		return o
	}

	// The byte-identity contract, asserted in-bench so the published numbers
	// can never come from divergent solves.
	cold0, err := Partition(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	pl, ph := buildPrep()
	warm0, err := Partition(g, warmed(pl, ph))
	if err != nil {
		b.Fatal(err)
	}
	if len(cold0.Assignment.Parts) != len(warm0.Assignment.Parts) {
		b.Fatal("cold and warm assignments differ in length")
	}
	for i := range cold0.Assignment.Parts {
		if cold0.Assignment.Parts[i] != warm0.Assignment.Parts[i] {
			b.Fatalf("cold and warm solves diverge at vertex %d: prep injection changed the result", i)
		}
	}

	var coldSecs, warmSecs, prepSecs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := Partition(g, opts); err != nil {
			b.Fatal(err)
		}
		coldSecs += time.Since(start).Seconds()

		start = time.Now()
		pl, ph := buildPrep()
		prepSecs += time.Since(start).Seconds()

		start = time.Now()
		if _, err := Partition(g, warmed(pl, ph)); err != nil {
			b.Fatal(err)
		}
		warmSecs += time.Since(start).Seconds()
	}
	b.ReportMetric(float64(g.M()), "edges")
	b.ReportMetric(coldSecs/float64(b.N)*1e3, "cold_ms")
	b.ReportMetric(warmSecs/float64(b.N)*1e3, "warm_ms")
	b.ReportMetric(prepSecs/float64(b.N)*1e3, "prep_ms")
	b.ReportMetric(coldSecs/warmSecs, "speedup")
}

// BenchmarkIncrementalGD compares full-gradient GD with the incremental
// (moved-coordinate delta) gradient path on the same bisection, in two
// regimes. With vertex fixing on (the default), the masked SpMV already
// skips fixed rows, so the delta gate rarely fires and the contract is
// simply "no overhead, no quality change". With vertex fixing off (the
// paper's Fig. 9 ablation configs), every row stays in the SpMV while the
// moved set collapses as coordinates saturate — the regime the delta
// scatter is built for. The quality guards locality_delta and
// locality_delta_nofix must stay ~0: the incremental path is an exact
// resync-corrected evaluation of the same iteration, not an approximation.
func BenchmarkIncrementalGD(b *testing.B) {
	g, _ := benchMLGraph()
	solve := func(o Options) (*Result, float64) {
		start := time.Now()
		res, err := Partition(g, o)
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(start).Seconds()
	}
	opts := Options{K: 2, Seed: 42}
	nofix := opts
	nofix.DisableVertexFixing = true
	var fullSecs, incSecs, fullNofixSecs, incNofixSecs float64
	var full, inc, fullNofix, incNofix *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s float64
		full, s = solve(opts)
		fullSecs += s
		o := opts
		o.IncrementalGradient = true
		inc, s = solve(o)
		incSecs += s

		fullNofix, s = solve(nofix)
		fullNofixSecs += s
		o = nofix
		o.IncrementalGradient = true
		incNofix, s = solve(o)
		incNofixSecs += s
	}
	b.ReportMetric(full.EdgeLocality, "locality_full")
	b.ReportMetric(inc.EdgeLocality, "locality_incremental")
	b.ReportMetric(inc.EdgeLocality-full.EdgeLocality, "locality_delta")
	b.ReportMetric(fullSecs/float64(b.N)*1e3, "full_ms")
	b.ReportMetric(incSecs/float64(b.N)*1e3, "incremental_ms")
	b.ReportMetric(fullSecs/incSecs, "speedup")
	b.ReportMetric(incNofix.EdgeLocality-fullNofix.EdgeLocality, "locality_delta_nofix")
	b.ReportMetric(fullNofixSecs/float64(b.N)*1e3, "full_nofix_ms")
	b.ReportMetric(incNofixSecs/float64(b.N)*1e3, "incremental_nofix_ms")
	b.ReportMetric(fullNofixSecs/incNofixSecs, "speedup_nofix")
}

// BenchmarkMultilevelCoarsen isolates hierarchy construction (cluster
// coarsening + contraction per level), the fixed cost of every V-cycle.
func BenchmarkMultilevelCoarsen(b *testing.B) {
	g, ws := benchMLGraph()
	wg0 := coarsen.Wrap(g, ws)
	b.SetBytes(8 * g.DirectedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(7))
		levels, _ := coarsen.Hierarchy(wg0, coarsen.HierarchyOptions{
			CoarsenTo: 8000,
			Clusters:  true,
			Cluster:   coarsen.ClusterOptions{MaxClusterVertices: 32},
		}, rng, nil)
		if len(levels) < 2 {
			b.Fatal("no hierarchy")
		}
	}
}
