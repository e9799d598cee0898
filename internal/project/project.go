// Package project implements the projection step of Algorithm 1 (Line 6):
// projecting a point y ∈ Rⁿ onto the feasible region
//
//	K = B∞ ∩ ⋂_j S^j  with  B∞ = [-1,1]ⁿ,  S^j = {x : Lo_j ≤ Σ_i w(j)_i·x_i ≤ Hi_j}.
//
// Four algorithms are provided, mirroring Table 1 of the paper:
//
//   - exact projection for d ≤ 2 (sorted-breakpoint sweep for d = 1; strip
//     bisection plus the Appendix A.2 region walk for d = 2), reduced to
//     equality-constrained instances via the 3^d sign-guess argument of §2.2;
//   - nested binary search for arbitrary d (Appendix A.1), arbitrary precision;
//   - alternating projections, including the "one-shot" single-pass variant
//     the paper uses inside GD iterations (§3.1);
//   - Dykstra's algorithm, which converges to the true projection.
//
// All slab constraints are intervals [Lo, Hi]; the symmetric ε-balance slab
// of the paper is Lo = −ε·W, Hi = +ε·W, and the asymmetric intervals arise
// from vertex fixing and non-power-of-two recursive splits.
package project

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mdbgp/internal/vecmath"
)

// Constraint is one balance slab Lo ≤ Σ_i W[i]·x[i] ≤ Hi with W[i] ≥ 0.
type Constraint struct {
	W      []float64
	Lo, Hi float64
}

// Center returns the midpoint of the slab, the target used by the paper's
// "project on S^j_0" variant of alternating projections.
func (c Constraint) Center() float64 { return (c.Lo + c.Hi) / 2 }

// Value returns Σ_i W[i]·x[i].
func (c Constraint) Value(x []float64) float64 {
	s := 0.0
	for i, w := range c.W {
		s += w * x[i]
	}
	return s
}

// Satisfied reports whether x lies inside the slab, with absolute slack tol.
func (c Constraint) Satisfied(x []float64, tol float64) bool {
	v := c.Value(x)
	return v >= c.Lo-tol && v <= c.Hi+tol
}

// WeightNormSq returns Σ_i W[i]².
func (c Constraint) WeightNormSq() float64 {
	s := 0.0
	for _, w := range c.W {
		s += w * w
	}
	return s
}

// TotalWeight returns Σ_i W[i].
func (c Constraint) TotalWeight() float64 {
	s := 0.0
	for _, w := range c.W {
		s += w
	}
	return s
}

// Method selects a projection algorithm.
type Method int

const (
	// AlternatingOneShot performs a single pass of hyperplane projections
	// followed by a cube clamp — the paper's default inside GD iterations.
	AlternatingOneShot Method = iota
	// Alternating runs alternating projections to convergence.
	Alternating
	// DykstraMethod runs Dykstra's algorithm, converging to the exact
	// projection for any d.
	DykstraMethod
	// Exact computes the exact projection: closed-form sweeps for d ≤ 2,
	// Dykstra with tight tolerance for d > 2 (the paper reports Dykstra and
	// exact projection coincide; see §3.1).
	Exact
	// Nested runs the Appendix A.1 nested binary search to precision Delta.
	Nested
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case AlternatingOneShot:
		return "alternating-oneshot"
	case Alternating:
		return "alternating"
	case DykstraMethod:
		return "dykstra"
	case Exact:
		return "exact"
	case Nested:
		return "nested"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ParseMethod converts a string produced by Method.String back to a Method.
func ParseMethod(s string) (Method, error) {
	for _, m := range []Method{AlternatingOneShot, Alternating, DykstraMethod, Exact, Nested} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("project: unknown method %q", s)
}

// Options configures a projection call.
type Options struct {
	Method Method
	// MaxIter bounds iterative methods (alternating, Dykstra). 0 = 200.
	MaxIter int
	// Tol is the convergence/feasibility tolerance. 0 = 1e-9 (absolute, in
	// units of the slab widths and coordinate moves).
	Tol float64
	// Center makes alternating projections target the slab midpoint
	// hyperplane S^j_0 instead of the nearest slab face; the paper reports
	// slightly better balance with this variant. Default false means
	// nearest-face.
	Center bool
	// Delta is the λ precision of the nested binary search. 0 = 1e-10.
	Delta float64
	// Workers is the number of goroutines used for the coordinate-wise
	// work (hyperplane/slab steps, cube clamps, the exact-1D apply) and the
	// chunk-ordered reductions; 0 selects GOMAXPROCS, 1 forces the serial
	// path. Results are bit-identical for any worker count.
	Workers int
}

func (o Options) maxIter() int {
	if o.MaxIter <= 0 {
		return 200
	}
	return o.MaxIter
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-9
	}
	return o.Tol
}

func (o Options) delta() float64 {
	if o.Delta <= 0 {
		return 1e-10
	}
	return o.Delta
}

func (o Options) pool() *vecmath.Pool { return vecmath.NewPool(o.Workers) }

// State carries warm-start information between successive projections of
// slowly moving points (the GD iterates). It is optional; nil disables warm
// starting.
type State struct {
	// Lambda holds the dual multipliers found by the previous exact
	// projection, used to seed bracket expansion.
	Lambda []float64
}

// ErrInfeasible is returned when the feasible region K is empty or the
// target cannot be reached (e.g. |c| > Σw for a slab).
var ErrInfeasible = errors.New("project: constraints infeasible")

// BoxClamp projects x onto the cube B∞ in place.
func BoxClamp(x []float64) {
	for i, v := range x {
		if v > 1 {
			x[i] = 1
		} else if v < -1 {
			x[i] = -1
		}
	}
}

// Feasible reports whether x lies in K up to tolerance tol.
func Feasible(x []float64, cons []Constraint, tol float64) bool {
	for _, v := range x {
		if v > 1+tol || v < -1-tol {
			return false
		}
	}
	for _, c := range cons {
		if !c.Satisfied(x, tol) {
			return false
		}
	}
	return true
}

// Project projects y onto K and writes the result into dst; dst may be y
// itself, projecting in place. The warm-start state st may be nil.
func Project(dst, y []float64, cons []Constraint, opt Options, st *State) error {
	if len(dst) != len(y) {
		return fmt.Errorf("project: dst len %d != y len %d", len(dst), len(y))
	}
	for j, c := range cons {
		if len(c.W) != len(y) {
			return fmt.Errorf("project: constraint %d weight len %d != %d", j, len(c.W), len(y))
		}
		if c.Lo > c.Hi {
			return fmt.Errorf("project: constraint %d has Lo %g > Hi %g", j, c.Lo, c.Hi)
		}
		for i, w := range c.W {
			if w < 0 || math.IsNaN(w) {
				return fmt.Errorf("project: constraint %d weight[%d] = %g, want >= 0", j, i, w)
			}
		}
	}
	// The exact and nested methods read y after they start writing dst, so
	// an in-place call hands them a private copy of y.
	if (opt.Method == Exact || opt.Method == Nested) && sameSlice(dst, y) {
		y = append([]float64(nil), y...)
	}
	switch opt.Method {
	case AlternatingOneShot, Alternating:
		return alternating(dst, y, cons, opt, opt.pool())
	case DykstraMethod:
		return dykstra(dst, y, cons, opt.maxIter(), opt.tol(), opt.pool())
	case Exact:
		return exact(dst, y, cons, opt, st)
	case Nested:
		return nested(dst, y, cons, opt.delta(), st)
	}
	return fmt.Errorf("project: unknown method %v", opt.Method)
}

// sameSlice reports whether a and b start at the same element.
func sameSlice(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// --- Pooled coordinate-wise helpers --------------------------------------
//
// These shard the coordinate loops of the projection steps over a
// vecmath.Pool. All reductions are chunk-ordered, so for a fixed input the
// projected point is bit-identical at every worker count. (The serial
// hyperplaneProject below survives for its direct test coverage; the d ≤ 2
// exact machinery keeps its own specialized sweeps.)

// valueP is Constraint.Value with a chunk-ordered reduction.
func valueP(c Constraint, x []float64, p *vecmath.Pool) float64 {
	return vecmath.DotPool(c.W, x, p)
}

// hyperplaneProjectP is hyperplaneProject with the ‖w‖² and ⟨w,x⟩ sums
// fused into one chunked pass and the update sharded over the pool.
func hyperplaneProjectP(x []float64, w []float64, c float64, p *vecmath.Pool) {
	nsq, v := p.ReduceSum2(len(x), func(lo, hi int) (float64, float64) {
		sn, sv := 0.0, 0.0
		for i := lo; i < hi; i++ {
			sn += w[i] * w[i]
			sv += w[i] * x[i]
		}
		return sn, sv
	})
	if nsq == 0 {
		return
	}
	alpha := (v - c) / nsq
	p.For(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] -= alpha * w[i]
		}
	})
}

// slabProjectP moves x onto the nearest face of the slab if it is outside,
// and leaves it unchanged otherwise.
func slabProjectP(x []float64, con Constraint, p *vecmath.Pool) {
	v := valueP(con, x, p)
	switch {
	case v > con.Hi:
		hyperplaneProjectP(x, con.W, con.Hi, p)
	case v < con.Lo:
		hyperplaneProjectP(x, con.W, con.Lo, p)
	}
}

// feasibleP is Feasible with pooled constraint evaluations. The box check
// is a pure comparison scan, so it needs no reduction ordering.
func feasibleP(x []float64, cons []Constraint, tol float64, p *vecmath.Pool) bool {
	for _, v := range x {
		if v > 1+tol || v < -1-tol {
			return false
		}
	}
	for _, c := range cons {
		v := valueP(c, x, p)
		if v < c.Lo-tol || v > c.Hi+tol {
			return false
		}
	}
	return true
}

// hyperplaneProject moves x onto {Σ w·x = c} by the orthogonal step
// x ← x − ((⟨w,x⟩−c)/‖w‖²)·w. A zero-weight constraint leaves x unchanged.
func hyperplaneProject(x []float64, w []float64, c float64) {
	nsq := 0.0
	v := 0.0
	for i, wi := range w {
		nsq += wi * wi
		v += wi * x[i]
	}
	if nsq == 0 {
		return
	}
	alpha := (v - c) / nsq
	for i, wi := range w {
		x[i] -= alpha * wi
	}
}

// alternating implements (one-shot) alternating projections: sequentially
// project onto each slab (or its center hyperplane when opt.Center) and then
// onto the cube, once for one-shot mode or until the point is feasible.
func alternating(dst, y []float64, cons []Constraint, opt Options, pool *vecmath.Pool) error {
	if !sameSlice(dst, y) {
		copy(dst, y)
	}
	passes := 1
	if opt.Method == Alternating {
		passes = opt.maxIter()
	}
	tol := opt.tol()
	for p := 0; p < passes; p++ {
		for _, con := range cons {
			if opt.Center {
				hyperplaneProjectP(dst, con.W, con.Center(), pool)
			} else {
				slabProjectP(dst, con, pool)
			}
		}
		vecmath.ClampPool(dst, pool)
		if opt.Method == Alternating && feasibleP(dst, cons, tol, pool) {
			return nil
		}
	}
	return nil
}

// dykstra implements Dykstra's projection algorithm over the cube and the d
// slabs; unlike plain alternating projections it converges to the exact
// Euclidean projection onto the intersection.
func dykstra(dst, y []float64, cons []Constraint, maxIter int, tol float64, pool *vecmath.Pool) error {
	n := len(y)
	copy(dst, y)
	sets := len(cons) + 1
	corr := make([][]float64, sets)
	for s := range corr {
		corr[s] = make([]float64, n)
	}
	z := make([]float64, n)
	prev := make([]float64, n)
	for it := 0; it < maxIter; it++ {
		copy(prev, dst)
		for s := 0; s < sets; s++ {
			cs := corr[s]
			pool.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					z[i] = dst[i] + cs[i]
					dst[i] = z[i]
				}
			})
			if s < len(cons) {
				slabProjectP(dst, cons[s], pool)
			} else {
				vecmath.ClampPool(dst, pool)
			}
			pool.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					cs[i] = z[i] - dst[i]
				}
			})
		}
		change := pool.ReduceSum(n, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				d := dst[i] - prev[i]
				s += d * d
			}
			return s
		})
		if change < tol*tol && feasibleP(dst, cons, 10*tol, pool) {
			return nil
		}
	}
	return nil
}

// --- Exact 1-D machinery -------------------------------------------------

// lambdaEvent marks a breakpoint of the piecewise-linear H(λ).
type lambdaEvent struct {
	lam   float64
	i     int32
	upper bool // true for the (y_i+1)/w_i breakpoint (mid → −1)
}

// solveLambda finds λ such that H(λ) = Σ_i w_i·clamp(y_i − λ·w_i) = c.
// H is continuous, piecewise linear and non-increasing from +Σw to −Σw
// (§2.3 of the paper). Returns false when c is outside the achievable range.
// Runs in O(n log n): sort the 2n breakpoints, then sweep.
func solveLambda(y, w []float64, c float64) (float64, bool) {
	totalW := 0.0
	events := make([]lambdaEvent, 0, 2*len(y))
	for i := range y {
		wi := w[i]
		if wi <= 0 {
			continue
		}
		totalW += wi
		events = append(events,
			lambdaEvent{lam: (y[i] - 1) / wi, i: int32(i), upper: false},
			lambdaEvent{lam: (y[i] + 1) / wi, i: int32(i), upper: true},
		)
	}
	scale := math.Max(1, totalW)
	eps := 1e-12 * scale
	if c > totalW+eps || c < -totalW-eps {
		return 0, false
	}
	if len(events) == 0 {
		// No positive weights: H ≡ 0; solvable only if c ≈ 0.
		if math.Abs(c) <= eps {
			return 0, true
		}
		return 0, false
	}
	sort.Slice(events, func(a, b int) bool { return events[a].lam < events[b].lam })

	// Segment coefficients: H(λ) = constSum + linC − slope·λ.
	constSum := totalW // λ → −∞: every x_i = +1
	linC := 0.0
	slope := 0.0
	prevLam := math.Inf(-1)
	for _, e := range events {
		// Current segment is [prevLam, e.lam].
		if slope > 0 {
			hEnd := constSum + linC - slope*e.lam
			if hEnd <= c {
				lam := (constSum + linC - c) / slope
				if lam < prevLam {
					lam = prevLam
				}
				if lam > e.lam {
					lam = e.lam
				}
				return lam, true
			}
		} else {
			// Constant segment.
			if math.Abs(constSum+linC-c) <= eps {
				if math.IsInf(prevLam, -1) {
					return e.lam - 1, true
				}
				return prevLam, true
			}
		}
		// Cross the breakpoint: update coefficients.
		wi := w[e.i]
		if !e.upper {
			// x_i switches +1 → middle.
			constSum -= wi
			linC += wi * y[e.i]
			slope += wi * wi
		} else {
			// x_i switches middle → −1.
			linC -= wi * y[e.i]
			slope -= wi * wi
			constSum -= wi
		}
		prevLam = e.lam
	}
	// Tail: H ≡ −totalW.
	if math.Abs(-totalW-c) <= eps {
		return prevLam, true
	}
	return 0, false
}

// applyLambda1 writes x_i = clamp(y_i − λ·w_i) into dst.
func applyLambda1(dst, y, w []float64, lam float64) {
	for i := range y {
		v := y[i] - lam*w[i]
		if v > 1 {
			v = 1
		} else if v < -1 {
			v = -1
		}
		dst[i] = v
	}
}

// exact1D computes the exact projection for a single slab constraint:
// clamp, and if the slab is violated solve the equality on the violated
// face. KKT sign conditions hold automatically because H is non-increasing.
// The coordinate-wise clamp/apply passes and the slab-value reduction run
// over the pool; the O(n log n) breakpoint sweep of solveLambda stays
// serial (it is dominated by the sort and feeds a single scalar λ).
func exact1D(dst, y []float64, con Constraint, st *State, pool *vecmath.Pool) error {
	pool.For(len(y), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = vecmath.ClampVal(y[i])
		}
	})
	v := valueP(con, dst, pool)
	var target float64
	switch {
	case v > con.Hi:
		target = con.Hi
	case v < con.Lo:
		target = con.Lo
	default:
		return nil
	}
	lam, ok := solveLambda(y, con.W, target)
	if !ok {
		return ErrInfeasible
	}
	w := con.W
	pool.For(len(y), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = vecmath.ClampVal(y[i] - lam*w[i])
		}
	})
	if st != nil {
		st.Lambda = append(st.Lambda[:0], lam)
	}
	return nil
}

// exact dispatches the exact projection by dimension count.
func exact(dst, y []float64, cons []Constraint, opt Options, st *State) error {
	switch len(cons) {
	case 0:
		copy(dst, y)
		BoxClamp(dst)
		return nil
	case 1:
		return exact1D(dst, y, cons[0], st, opt.pool())
	case 2:
		return exact2D(dst, y, cons[0], cons[1], st)
	default:
		// For d > 2 the exact projection is obtained with Dykstra at tight
		// tolerance; the paper observes Dykstra and the exact projection
		// coincide (§3.1). The Nested method offers the Appendix A.1 scheme.
		return dykstra(dst, y, cons, 50*opt.maxIter(), opt.tol()*1e-3, opt.pool())
	}
}
