package vecmath

import "unsafe"

// blockRows is the register-blocking factor of SpMVBlockedPool: rows are
// processed in groups of four with one independent accumulator chain each.
// A single row's gather is latency-bound on the serial float64 add chain
// (one add per arc); four interleaved chains keep the load ports busy
// instead. Groups start at multiples of four relative to row 0 and Pool
// chunks are 4096-aligned, so the grouping — and therefore the performance
// profile — is independent of the worker count, while each row's sum order
// never changes at all.
const blockRows = 4

// spmvRowUnsafe continues accumulating a CSR row over arcs [b, e) starting
// from s, with unchecked loads, preserving the left-to-right arc order of
// the checked kernels (the caller passes the running sum so a row split
// across the blocked loop and its tail keeps one association).
func spmvRowUnsafe(ab, eb, xb unsafe.Pointer, b, e int64, s float64) float64 {
	if eb == nil {
		for i := b; i < e; i++ {
			u := *(*int32)(unsafe.Add(ab, uintptr(i)*4))
			s += *(*float64)(unsafe.Add(xb, uintptr(u)*8))
		}
	} else {
		for i := b; i < e; i++ {
			u := *(*int32)(unsafe.Add(ab, uintptr(i)*4))
			s += *(*float64)(unsafe.Add(eb, uintptr(i)*8)) *
				*(*float64)(unsafe.Add(xb, uintptr(u)*8))
		}
	}
	return s
}

// spmvRows4 returns the sums of CSR rows v0..v3, which need not be adjacent.
// The four rows advance in lockstep over their first m arcs (m the shortest
// row), one accumulator chain each, and spmvRowUnsafe finishes every row
// from its running sum, so each row keeps its left-to-right arc order.
func spmvRows4(ab, eb, xb unsafe.Pointer, offsets []int64, v0, v1, v2, v3 int) (float64, float64, float64, float64) {
	i0, e0 := offsets[v0], offsets[v0+1]
	i1, e1 := offsets[v1], offsets[v1+1]
	i2, e2 := offsets[v2], offsets[v2+1]
	i3, e3 := offsets[v3], offsets[v3+1]
	m := e0 - i0
	if c := e1 - i1; c < m {
		m = c
	}
	if c := e2 - i2; c < m {
		m = c
	}
	if c := e3 - i3; c < m {
		m = c
	}
	var s0, s1, s2, s3 float64
	if eb == nil {
		for k := int64(0); k < m; k++ {
			u0 := *(*int32)(unsafe.Add(ab, uintptr(i0+k)*4))
			u1 := *(*int32)(unsafe.Add(ab, uintptr(i1+k)*4))
			u2 := *(*int32)(unsafe.Add(ab, uintptr(i2+k)*4))
			u3 := *(*int32)(unsafe.Add(ab, uintptr(i3+k)*4))
			s0 += *(*float64)(unsafe.Add(xb, uintptr(u0)*8))
			s1 += *(*float64)(unsafe.Add(xb, uintptr(u1)*8))
			s2 += *(*float64)(unsafe.Add(xb, uintptr(u2)*8))
			s3 += *(*float64)(unsafe.Add(xb, uintptr(u3)*8))
		}
	} else {
		for k := int64(0); k < m; k++ {
			u0 := *(*int32)(unsafe.Add(ab, uintptr(i0+k)*4))
			u1 := *(*int32)(unsafe.Add(ab, uintptr(i1+k)*4))
			u2 := *(*int32)(unsafe.Add(ab, uintptr(i2+k)*4))
			u3 := *(*int32)(unsafe.Add(ab, uintptr(i3+k)*4))
			s0 += *(*float64)(unsafe.Add(eb, uintptr(i0+k)*8)) * *(*float64)(unsafe.Add(xb, uintptr(u0)*8))
			s1 += *(*float64)(unsafe.Add(eb, uintptr(i1+k)*8)) * *(*float64)(unsafe.Add(xb, uintptr(u1)*8))
			s2 += *(*float64)(unsafe.Add(eb, uintptr(i2+k)*8)) * *(*float64)(unsafe.Add(xb, uintptr(u2)*8))
			s3 += *(*float64)(unsafe.Add(eb, uintptr(i3+k)*8)) * *(*float64)(unsafe.Add(xb, uintptr(u3)*8))
		}
	}
	return spmvRowUnsafe(ab, eb, xb, i0+m, e0, s0),
		spmvRowUnsafe(ab, eb, xb, i1+m, e1, s1),
		spmvRowUnsafe(ab, eb, xb, i2+m, e2, s2),
		spmvRowUnsafe(ab, eb, xb, i3+m, e3, s3)
}

// checkBlockedArgs rejects the slice-length mismatches that the unchecked
// loads of the blocked kernels would otherwise turn into out-of-bounds
// reads. n = len(offsets)-1 must be positive.
func checkBlockedArgs(kernel string, offsets []int64, adj []int32, ew, x, dst []float64) {
	n := len(offsets) - 1
	if len(x) != n || len(dst) != n {
		panic("vecmath: " + kernel + " vector/offset length mismatch")
	}
	if int64(len(adj)) != offsets[n] {
		panic("vecmath: " + kernel + " adjacency/offset length mismatch")
	}
	if ew != nil && len(ew) != len(adj) {
		panic("vecmath: " + kernel + " edge-weight length mismatch")
	}
}

// SpMVBlockedPool computes dst = A_w·x over a raw weighted CSR adjacency
// exactly like SpMVWeightedMaskedPool — same masking rules, same per-row
// left-to-right summation order, bit-identical output at any worker count —
// but register-blocked: rows run in interleaved groups of four, and the
// gather x[adj[i]] uses unchecked loads. It is the speed-of-light variant
// of the gradient kernel for bandwidth-reduced (reordered) layouts, and is
// what internal/reorder's Layout drives.
//
// Unlike the checked kernels it REQUIRES the CSR validity invariant: every
// adj[i] must lie in [0, len(offsets)-1). graph.Graph construction and
// reorder.NewLayout guarantee this; callers handing in hand-built arrays
// must validate them first (graph.FromCSR does). Slice-length mismatches
// are rejected up front.
func SpMVBlockedPool(offsets []int64, adj []int32, ew []float64, x, dst []float64, fixed []bool, p *Pool) {
	n := len(offsets) - 1
	if n <= 0 {
		return
	}
	checkBlockedArgs("SpMVBlockedPool", offsets, adj, ew, x, dst)
	if fixed != nil && len(fixed) != n {
		panic("vecmath: SpMVBlockedPool mask length mismatch")
	}
	if len(adj) == 0 {
		p.For(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if fixed == nil || !fixed[v] {
					dst[v] = 0
				}
			}
		})
		return
	}
	xb := unsafe.Pointer(&x[0])
	ab := unsafe.Pointer(&adj[0])
	var eb unsafe.Pointer
	if ew != nil {
		eb = unsafe.Pointer(&ew[0])
	}
	p.For(n, func(lo, hi int) {
		v := lo
		for ; v+blockRows <= hi; v += blockRows {
			if fixed != nil && (fixed[v] || fixed[v+1] || fixed[v+2] || fixed[v+3]) {
				for w := v; w < v+blockRows; w++ {
					if !fixed[w] {
						dst[w] = spmvRowUnsafe(ab, eb, xb, offsets[w], offsets[w+1], 0)
					}
				}
				continue
			}
			dst[v], dst[v+1], dst[v+2], dst[v+3] = spmvRows4(ab, eb, xb, offsets, v, v+1, v+2, v+3)
		}
		for ; v < hi; v++ {
			if fixed == nil || !fixed[v] {
				dst[v] = spmvRowUnsafe(ab, eb, xb, offsets[v], offsets[v+1], 0)
			}
		}
	})
}

// SpMVRowsPool computes dst[v] = (A_w·x)[v] for exactly the rows listed in
// rows, which must be strictly ascending and lie in [0, n), and leaves every
// other entry of dst untouched. It returns Σ dst[v]² over the listed rows
// and, when dot is set, Σ x[v]·dst[v] (0 otherwise). This is the gradient
// step of GD over the free vertices, with the gradient norm — and the
// convergence trajectory's free quadratic form — fused into the same pass,
// so an iteration costs O(listed arcs + listed rows) instead of O(n + m).
//
// Listed rows run register-blocked, four at a time, through the same
// lockstep loop as SpMVBlockedPool, so every row sum has the bits of
// SpMVWeightedMaskedPool with the unlisted rows masked. The two sums are
// Pool.ReduceRows2 reductions — per fixed chunk of [0, n) in index order,
// then across chunks in chunk order — which is the association of ReduceSum2
// over a masked full-length loop. Results are therefore bit-identical to the
// masked kernel plus a masked ReduceSum2, at any worker count.
//
// Like SpMVBlockedPool it REQUIRES the CSR validity invariant and rejects
// slice-length mismatches up front.
func SpMVRowsPool(offsets []int64, adj []int32, ew []float64, x, dst []float64, rows []int32, dot bool, p *Pool) (sumSq, sumDot float64) {
	n := len(offsets) - 1
	if n <= 0 {
		return 0, 0
	}
	checkBlockedArgs("SpMVRowsPool", offsets, adj, ew, x, dst)
	// SliceData never panics on an empty adjacency; the loads it guards
	// then never run, since every row is empty.
	xb := unsafe.Pointer(&x[0])
	ab := unsafe.Pointer(unsafe.SliceData(adj))
	eb := unsafe.Pointer(unsafe.SliceData(ew))
	return p.ReduceRows2(n, rows, func(seg []int32) (float64, float64) {
		var s, q float64
		k := 0
		for ; k+blockRows <= len(seg); k += blockRows {
			v0, v1, v2, v3 := int(seg[k]), int(seg[k+1]), int(seg[k+2]), int(seg[k+3])
			g0, g1, g2, g3 := spmvRows4(ab, eb, xb, offsets, v0, v1, v2, v3)
			dst[v0], dst[v1], dst[v2], dst[v3] = g0, g1, g2, g3
			s += g0 * g0
			s += g1 * g1
			s += g2 * g2
			s += g3 * g3
			if dot {
				q += x[v0] * g0
				q += x[v1] * g1
				q += x[v2] * g2
				q += x[v3] * g3
			}
		}
		for ; k < len(seg); k++ {
			v := int(seg[k])
			g := spmvRowUnsafe(ab, eb, xb, offsets[v], offsets[v+1], 0)
			dst[v] = g
			s += g * g
			if dot {
				q += x[v] * g
			}
		}
		return s, q
	})
}
