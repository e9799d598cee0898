// Package core implements GD, the paper's contribution (Algorithm 1):
// multi-dimensional balanced graph 2-partitioning by randomized projected
// gradient ascent on the continuous relaxation
//
//	maximize ½·xᵀAx   subject to   x ∈ B∞ ∩ ⋂_j S^j_ε,
//
// followed by randomized rounding. Each iteration adds Gaussian noise (only
// at t = 0 in practice, §3.2), takes a gradient step y = (I + γ_t·A)·z, and
// projects back onto the feasible region. The practical refinements of §3.2
// — adaptive step size targeting constant per-iteration progress and vertex
// fixing — are implemented and individually switchable so the Figure 8–10
// ablations can be reproduced. k-way partitions use recursive bisection
// (§3.3) with asymmetric split targets for non-powers of two.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"mdbgp/internal/coarsen"
	"mdbgp/internal/graph"
	"mdbgp/internal/obs"
	"mdbgp/internal/partition"
	"mdbgp/internal/project"
	"mdbgp/internal/vecmath"
)

// Options configures a GD run. Use DefaultOptions as the starting point;
// zero numeric fields fall back to the paper's defaults.
type Options struct {
	// Epsilon is the per-dimension balance tolerance ε of Definition 2.1.
	Epsilon float64
	// Iterations is I, the fixed iteration budget (paper default 100).
	Iterations int
	// StepLength is the target per-iteration progress in units of √n/I; the
	// paper finds 2 works well across graphs (Figure 8).
	StepLength float64
	// Adaptive rescales γ_t every iteration so ‖x(t+1) − x(t)‖ stays close
	// to the target step length (§3.2). When false, γ is frozen to
	// FixedGamma (or derived once from the first gradient if zero).
	Adaptive bool
	// FixedGamma is the constant step size used when Adaptive is false.
	FixedGamma float64
	// NoiseScale is the standard deviation of the t=0 Gaussian noise per
	// coordinate; 0 defaults to StepLength/Iterations so the initial kick
	// has the same norm as a regular step.
	NoiseScale float64
	// VertexFixing snaps coordinates with |x_i| ≥ FixThreshold to ±1 and
	// removes them from the optimization (§3.2).
	VertexFixing bool
	// FixThreshold is the |x_i| snap threshold (default 0.99).
	FixThreshold float64
	// Projection selects and configures the projection algorithm (§3.1).
	Projection project.Options
	// Seed drives all randomness (noise, rounding, repair); runs are
	// deterministic given a seed.
	Seed int64
	// Workers is the number of goroutines used by the SpMV gradient step,
	// the vector kernels, the projection, and — in PartitionK — concurrent
	// recursive bisection of sibling subgraphs; 0 selects GOMAXPROCS, 1
	// forces the serial path. All reductions are chunk-ordered, so for a
	// fixed Seed the result is bit-identical regardless of Workers.
	Workers int
	// TargetFraction α is the weight fraction assigned to side V1 (part 0);
	// 0 defaults to ½. Recursive partitioning uses α = ⌈k/2⌉/k.
	TargetFraction float64
	// RepairBalance greedily moves the most fractional vertices after
	// rounding until every dimension is within ε (the paper notes residual
	// rounding imbalance is "fixed in the end", Figure 9).
	RepairBalance bool
	// WarmStart, when non-nil, initializes the fractional solution x instead
	// of the origin (values are clamped into [-1, 1]) and suppresses the
	// t = 0 Gaussian noise — the multilevel V-cycle prolongates each coarse
	// solution through this field. Must have length n when set.
	WarmStart []float64
	// WarmParts, when non-nil, carries a prior k-way assignment into
	// PartitionK's recursive bisection: before each 2-way split, vertices
	// whose prior part falls in the split's left (right) part range seed the
	// fractional solution at +WarmPartDamp (−WarmPartDamp) via WarmStart,
	// and the slice is restricted alongside the weights for the child
	// recursions. Values outside the subtree's part range (including -1 for
	// vertices unknown to the prior solution) start neutral at 0. Must have
	// one entry per vertex when set. This is the incremental-repartitioning
	// entry point: the warm solve runs the same projection constraints,
	// rounding and balance repair as a cold one, so ε-balance guarantees are
	// unchanged.
	WarmParts []int32
	// Trace, when set, receives per-iteration statistics (costs one extra
	// SpMV per iteration). PartitionK multiplexes the hook across the
	// recursive bisection tree — calls are serialized, and IterStats.Path
	// identifies the bisection reporting.
	Trace func(IterStats)
	// Span, when set, is the parent observability span: the run records a
	// "gd" child span with convergence telemetry (sampled locality
	// trajectory, iterations to 90% of final locality) and BisectWeighted a
	// "round" span for rounding + repair. Unlike Trace, span telemetry is
	// sampled at a fixed iteration stride and adds O(free) per sample, cheap
	// enough to leave on for every served request. Span structure and
	// attributes are deterministic for a fixed Seed at any Workers.
	Span *obs.Span
}

// DefaultOptions returns the configuration used for the paper's headline
// results: ε = 5%, 100 iterations, step length 2·√n/100, adaptive step size
// with vertex fixing, one-shot alternating projection onto the balance
// hyperplanes.
func DefaultOptions() Options {
	return Options{
		Epsilon:       0.05,
		Iterations:    100,
		StepLength:    2,
		Adaptive:      true,
		VertexFixing:  true,
		FixThreshold:  0.99,
		Projection:    project.Options{Method: project.AlternatingOneShot, Center: true},
		RepairBalance: true,
	}
}

func (o *Options) normalize() {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.05
	}
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.StepLength <= 0 {
		o.StepLength = 2
	}
	if o.FixThreshold <= 0 || o.FixThreshold > 1 {
		o.FixThreshold = 0.99
	}
	if o.TargetFraction <= 0 || o.TargetFraction >= 1 {
		o.TargetFraction = 0.5
	}
	if o.NoiseScale <= 0 {
		o.NoiseScale = o.StepLength / float64(o.Iterations)
	}
}

// IterStats reports the state of GD after one iteration, feeding the
// convergence plots of Figures 8–10.
type IterStats struct {
	// Path locates the reporting bisection inside a recursive k-way solve:
	// "" for the root (or a direct 2-way run), then one digit per level —
	// "0" for the left child, "1" for the right, "01" for the left child's
	// right child, and so on.
	Path string
	Iter int
	// ExpectedLocality is the expected fraction of uncut edges under
	// randomized rounding of the current fractional x.
	ExpectedLocality float64
	// MaxImbalance is max_j |Σ_i w(j)_i·x_i − target_j| / W_j, the
	// fractional counterpart of the plotted max imbalance.
	MaxImbalance float64
	// Fixed is the number of vertices snapped to ±1 so far.
	Fixed int
	// Gamma is the step size used this iteration.
	Gamma float64
	// StepNorm is ‖x(t+1) − x(t)‖₂ over free coordinates.
	StepNorm float64
}

// Result is the outcome of a 2-way GD run.
type Result struct {
	// X is the final fractional solution (fixed coordinates are exactly ±1).
	X []float64
	// Assignment maps x = +1 to part 0 and x = −1 to part 1 after rounding
	// and repair.
	Assignment *partition.Assignment
	// Iterations is the number of gradient iterations actually executed.
	Iterations int
	// RepairMoves counts vertices moved by the balance repair pass.
	RepairMoves int
}

// Bisect partitions g into two sides with per-dimension weight targets
// (α, 1−α)·W ± ε·W/2 while maximizing edge locality. It is the unit-edge-
// weight case of BisectWeighted (the wrap is zero-copy and keeps the
// unweighted SpMV fast path).
func Bisect(g *graph.Graph, ws [][]float64, opt Options) (*Result, error) {
	return BisectWeighted(coarsen.Wrap(g, ws), opt)
}

// BisectWeighted runs the full GD bisection — gradient ascent, randomized
// rounding, balance repair — on an edge-weighted graph. Coarse levels of a
// multilevel hierarchy are first-class inputs: the gradient is the weighted
// SpMV A_w·x and the objective is the expected uncut edge WEIGHT, so
// optimizing a coarse level optimizes exactly the fine-graph objective
// restricted to the surviving edges.
func BisectWeighted(wg *coarsen.Graph, opt Options) (*Result, error) {
	opt.normalize()
	n := wg.N()
	if err := checkWeights(n, wg.VW); err != nil {
		return nil, err
	}
	if n == 0 {
		return &Result{X: nil, Assignment: partition.NewAssignment(0, 2)}, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	x, fixed, itersRun, targets, halves, totals, err := optimize(wg, opt, rng)
	if err != nil {
		return nil, err
	}
	roundSpan := opt.Span.Start("round")
	side := roundSides(x, fixed, rng)
	moves := 0
	if opt.RepairBalance {
		moves = repairBalance(wg, side, x, targets, halves, totals, rng)
	}
	roundSpan.SetAttr("repair_moves", moves)
	roundSpan.End()
	asgn := partition.NewAssignment(n, 2)
	for i, sd := range side {
		if sd < 0 {
			asgn.Parts[i] = 1
		}
		x[i] = float64(sd)
	}
	return &Result{X: x, Assignment: asgn, Iterations: itersRun, RepairMoves: moves}, nil
}

// OptimizeWeighted runs only the projected gradient ascent and returns the
// FRACTIONAL solution (fixed coordinates are exactly ±1, free ones lie in
// [-1, 1]) together with the iteration count. The multilevel V-cycle uses it
// on every level except the finest, where BisectWeighted performs the final
// rounding and repair.
func OptimizeWeighted(wg *coarsen.Graph, opt Options) ([]float64, int, error) {
	opt.normalize()
	if err := checkWeights(wg.N(), wg.VW); err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	x, _, iters, _, _, _, err := optimize(wg, opt, rng)
	return x, iters, err
}

// optimize is the shared gradient loop of Algorithm 1. opt must already be
// normalized; rng carries the caller's stream so rounding continues it.
func optimize(wg *coarsen.Graph, opt Options, rng *rand.Rand) (xOut []float64, fixedOut []bool, itersRun int, targets, halves, totals []float64, err error) {
	n := wg.N()
	ws := wg.VW
	pool := vecmath.NewPool(opt.Workers)
	if opt.Projection.Workers == 0 {
		opt.Projection.Workers = opt.Workers
	}

	gdSpan := opt.Span.Start("gd")
	defer gdSpan.End()
	var conv *convSampler
	if gdSpan != nil {
		gdSpan.SetAttr("n", n)
		gdSpan.SetAttr("arcs", len(wg.Adj))
		conv = newConvSampler(wg, opt.Iterations, pool)
	}

	d := len(ws)
	totals = make([]float64, d)
	for j, w := range ws {
		for _, v := range w {
			totals[j] += v
		}
	}
	s := 2*opt.TargetFraction - 1
	targets = make([]float64, d) // slab centers: Σ w x = s·W
	halves = make([]float64, d)  // slab half-widths: ε·W
	for j := range targets {
		targets[j] = s * totals[j]
		halves[j] = opt.Epsilon * totals[j]
	}

	x := make([]float64, n)
	if opt.WarmStart != nil {
		if len(opt.WarmStart) != n {
			return nil, nil, 0, nil, nil, nil,
				fmt.Errorf("core: warm start length %d, graph has %d vertices", len(opt.WarmStart), n)
		}
		for i, v := range opt.WarmStart {
			x[i] = vecmath.ClampVal(v)
		}
	}
	grad := make([]float64, n)
	fixed := make([]bool, n)
	fixedWeight := make([]float64, d) // C_j = Σ_fixed w(j)·x
	freeWeight := make([]float64, d)  // Σ_free w(j)
	copy(freeWeight, totals)
	fixedCount := 0

	// The free subproblem, compacted: freeIdx lists the free vertices in
	// ascending order, wF[j] their weights in the same order, and xF holds
	// the step y and then its projection. The fixing pass keeps all three
	// compact, so after t = 0 an iteration touches only free rows and free
	// coordinates.
	freeIdx := make([]int32, n)
	for i := range freeIdx {
		freeIdx[i] = int32(i)
	}
	xF := make([]float64, n)
	srcF := make([]int32, n) // fixing pass: survivor k came from free position srcF[k]
	wF := make([][]float64, d)
	for j := range wF {
		wF[j] = append([]float64(nil), ws[j]...)
	}

	L := opt.StepLength * math.Sqrt(float64(n)) / float64(opt.Iterations)
	gammaFrozen := opt.FixedGamma
	var st project.State

	for t := 0; t < opt.Iterations; t++ {
		if fixedCount == n {
			break
		}
		itersRun++

		// z is the point the gradient step starts from: x itself, except for
		// the t = 0 noise kick, which perturbs a copy. (No vertex is fixed
		// yet at t = 0.)
		z := x
		if t == 0 && opt.WarmStart == nil {
			z = make([]float64, n)
			for i := range z {
				z[i] = x[i] + rng.NormFloat64()*opt.NoiseScale
			}
		}

		// The gradient grad = A_w·z on the free rows and its squared norm come
		// from one pass over the free rows. On sampling iterations the
		// trajectory's Σ z·grad rides along, taken before the saddle fallback
		// below can overwrite grad. The norm accumulates in the same order
		// either way, so gnorm is bit-identical with tracing off.
		sample := conv != nil && conv.wantSample(t)
		normSq, freeQuad := vecmath.SpMVRowsPool(wg.Offsets, wg.Adj, wg.EW, z, grad, freeIdx, sample, pool)
		if sample {
			conv.record(t, freeQuad)
		}
		gradIsNoise := false
		gnorm := math.Sqrt(normSq)
		if gnorm < 1e-12 {
			// Saddle/flat region: fall back to a random direction so the
			// iteration still makes progress (noise escape, §2.1 Step 1).
			gradIsNoise = true
			for _, i := range freeIdx {
				grad[i] = rng.NormFloat64()
			}
			normSq, _ = pool.ReduceRows2(n, freeIdx, func(seg []int32) (float64, float64) {
				s := 0.0
				for _, i := range seg {
					s += grad[i] * grad[i]
				}
				return s, 0
			})
			gnorm = math.Sqrt(normSq)
			if gnorm == 0 {
				break
			}
		}
		gamma := L / gnorm
		if !opt.Adaptive {
			if gammaFrozen == 0 {
				gammaFrozen = gamma
			}
			gamma = gammaFrozen
		}

		nf := len(freeIdx)
		xs := xF[:nf]
		cons := make([]project.Constraint, d)
		for j := 0; j < d; j++ {
			lo := targets[j] - halves[j] - fixedWeight[j]
			hi := targets[j] + halves[j] - fixedWeight[j]
			// Clamp the interval to what the free coordinates can achieve.
			if lo > freeWeight[j] {
				lo, hi = freeWeight[j], freeWeight[j]
			} else if hi < -freeWeight[j] {
				lo, hi = -freeWeight[j], -freeWeight[j]
			} else {
				if hi > freeWeight[j] {
					hi = freeWeight[j]
				}
				if lo < -freeWeight[j] {
					lo = -freeWeight[j]
				}
			}
			cons[j] = project.Constraint{W: wF[j][:nf], Lo: lo, Hi: hi}
		}

		stepNorm := 0.0
		for attempt := 0; ; attempt++ {
			// y = z + γ·grad is built in xs and projected in place; z and
			// grad are untouched, so a doubled retry rebuilds it from them.
			pool.For(nf, func(lo, hi int) {
				for fi := lo; fi < hi; fi++ {
					i := freeIdx[fi]
					xs[fi] = z[i] + gamma*grad[i]
				}
			})
			if err := project.Project(xs, xs, cons, opt.Projection, &st); err != nil {
				return nil, nil, 0, nil, nil, nil,
					fmt.Errorf("core: projection failed at iteration %d: %w", t, err)
			}
			stepNorm = math.Sqrt(pool.ReduceSum(nf, func(lo, hi int) float64 {
				s := 0.0
				for fi := lo; fi < hi; fi++ {
					dlt := xs[fi] - x[freeIdx[fi]]
					s += dlt * dlt
				}
				return s
			}))
			// The doubling loop enforces minimum per-iteration progress so a
			// cold start escapes the flat region around the origin (§3.2).
			// A warm-started refinement is the opposite situation: it is
			// already near a good solution, and forcing L/2 of movement onto
			// the few coordinates the warm start left free just jolts them
			// off it — so refinement takes the plain projected step.
			if !opt.Adaptive || opt.WarmStart != nil || stepNorm >= L/2 || attempt >= 3 {
				break
			}
			gamma *= 2
		}

		if !opt.VertexFixing {
			pool.For(nf, func(lo, hi int) {
				for fi := lo; fi < hi; fi++ {
					x[freeIdx[fi]] = xs[fi]
				}
			})
		} else {
			// One ascending pass scatters the step into x, snaps coordinates
			// past the threshold to ±1 and compacts freeIdx over the
			// survivors in place, recording where each survivor came from;
			// each wF[j] is then compacted from the first fix on. The next
			// projection sees exactly the arrays a from-scratch rebuild would
			// produce.
			kept, firstFix := 0, nf
			for fi, i := range freeIdx {
				if v := xs[fi]; v >= opt.FixThreshold || v <= -opt.FixThreshold {
					snapped := 1.0
					if v < 0 {
						snapped = -1.0
					}
					x[i] = snapped
					fixed[i] = true
					fixedCount++
					for j, w := range wF {
						fixedWeight[j] += w[fi] * snapped
						freeWeight[j] -= w[fi]
					}
					if conv != nil {
						// After the saddle fallback grad holds noise, not row
						// sums; freezing 0 is the honest stand-in (the true
						// sum is ~0 in that flat region anyway).
						gi := grad[i]
						if gradIsNoise {
							gi = 0
						}
						conv.onFix(gi, snapped)
					}
					firstFix = min(firstFix, kept)
					continue
				}
				x[i] = xs[fi]
				freeIdx[kept] = i
				srcF[kept] = int32(fi)
				kept++
			}
			for _, w := range wF {
				for k := firstFix; k < kept; k++ {
					w[k] = w[srcF[k]]
				}
			}
			freeIdx = freeIdx[:kept]
		}

		if opt.Trace != nil {
			opt.Trace(IterStats{
				Iter:             t,
				ExpectedLocality: vecmath.ExpectedLocalityWeighted(wg.Offsets, wg.Adj, wg.EW, x),
				MaxImbalance:     fracImbalance(x, ws, totals, targets),
				Fixed:            fixedCount,
				Gamma:            gamma,
				StepNorm:         stepNorm,
			})
		}
	}

	if gdSpan != nil {
		gdSpan.SetAttr("iters", itersRun)
		gdSpan.SetAttr("fixed", fixedCount)
		conv.annotate(gdSpan, x)
	}
	return x, fixed, itersRun, targets, halves, totals, nil
}

// roundSides applies the randomized rounding of §2: side +1 with probability
// (1 + x_i)/2.
func roundSides(x []float64, fixed []bool, rng *rand.Rand) []int8 {
	side := make([]int8, len(x))
	for i, v := range x {
		switch {
		case fixed[i] && v > 0:
			side[i] = 1
		case fixed[i]:
			side[i] = -1
		case rng.Float64() < (1+v)/2:
			side[i] = 1
		default:
			side[i] = -1
		}
	}
	return side
}

// fracImbalance is max_j |Σ w(j)·x − target_j| / W_j — for a two-way split
// this equals (max side weight / average − 1) of the fractional solution.
func fracImbalance(x []float64, ws [][]float64, totals, targets []float64) float64 {
	worst := 0.0
	for j, w := range ws {
		v := 0.0
		for i, wi := range w {
			v += wi * x[i]
		}
		if totals[j] <= 0 {
			continue
		}
		if im := math.Abs(v-targets[j]) / totals[j]; im > worst {
			worst = im
		}
	}
	return worst
}

func checkWeights(n int, ws [][]float64) error {
	if len(ws) == 0 {
		return fmt.Errorf("core: at least one weight function required")
	}
	for j, w := range ws {
		if len(w) != n {
			return fmt.Errorf("core: weight %d has length %d, graph has %d vertices", j, len(w), n)
		}
		for i, v := range w {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: weight %d at vertex %d is %g, want > 0", j, i, v)
			}
		}
	}
	return nil
}
