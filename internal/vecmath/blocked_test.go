package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mdbgp/internal/graph"
)

// TestSpMVBlockedRejectsMismatchedLengths pins the up-front length checks
// that guard the register-blocked kernel's unchecked loads.
func TestSpMVBlockedRejectsMismatchedLengths(t *testing.T) {
	offsets := []int64{0, 1, 2}
	adj := []int32{1, 0}
	cases := []struct {
		name string
		fn   func()
	}{
		{"rows short x", func() { SpMVRowsPool(offsets, adj, nil, make([]float64, 1), make([]float64, 2), nil, false, nil) }},
		{"rows short dst", func() { SpMVRowsPool(offsets, adj, nil, make([]float64, 2), make([]float64, 1), nil, false, nil) }},
		{"rows short adj", func() { SpMVRowsPool(offsets, adj[:1], nil, make([]float64, 2), make([]float64, 2), nil, false, nil) }},
		{"rows short ew", func() {
			SpMVRowsPool(offsets, adj, []float64{1}, make([]float64, 2), make([]float64, 2), nil, false, nil)
		}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// rowsCase builds a random weighted CSR on n vertices in which every fifth
// vertex is isolated, so zero-degree rows land inside register blocks and
// chunk tails, plus an input vector.
func rowsCase(seed int64, n int) (offsets []int64, adj []int32, ew, x []float64) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; n > 1 && i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u%5 != 0 && v%5 != 0 {
			b.AddEdge(u, v)
		}
	}
	offsets, adj = b.Build().CSR()
	ew = make([]float64, len(adj))
	for i := range ew {
		ew[i] = rng.Float64()*3 - 1
	}
	x = make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return offsets, adj, ew, x
}

// TestSpMVRowsMatchesMaskedBitwise pins the free-set gradient kernel to its
// reference: SpMVWeightedMaskedPool with the unlisted rows masked, followed
// by a masked ReduceSum2 of Σg² and Σx·g. Row values and both sums must
// agree bit for bit at every size around the 4096-index chunk boundary,
// every mask shape and every worker count.
func TestSpMVRowsMatchesMaskedBitwise(t *testing.T) {
	masks := map[string]func(rng *rand.Rand, i int) bool{
		"none":    func(*rand.Rand, int) bool { return false },
		"all":     func(*rand.Rand, int) bool { return true },
		"random":  func(rng *rand.Rand, _ int) bool { return rng.Intn(3) == 0 },
		"every16": func(_ *rand.Rand, i int) bool { return i%16 == 0 },
	}
	bits := math.Float64bits
	for _, n := range []int{1, 4095, 4096, 4097, 3*4096 + 5} {
		offsets, adj, ew, x := rowsCase(int64(n), n)
		for mname, maskFn := range masks {
			rng := rand.New(rand.NewSource(int64(n) + 3))
			fixed := make([]bool, n)
			var rows []int32
			for i := range fixed {
				fixed[i] = maskFn(rng, i)
				if !fixed[i] {
					rows = append(rows, int32(i))
				}
			}
			for _, weights := range []string{"unit", "weighted"} {
				w := ew
				if weights == "unit" {
					w = nil
				}
				for _, workers := range []int{1, 2, 8} {
					label := fmt.Sprintf("n=%d mask=%s %s workers=%d", n, mname, weights, workers)
					p := NewPool(workers)
					want := make([]float64, n)
					got := make([]float64, n)
					for i := range want {
						want[i] = -99.5 // unlisted rows must keep prior dst
						got[i] = -99.5
					}
					SpMVWeightedMaskedPool(offsets, adj, w, x, want, fixed, p)
					wantSq, wantDot := p.ReduceSum2(n, func(lo, hi int) (float64, float64) {
						s, q := 0.0, 0.0
						for i := lo; i < hi; i++ {
							if !fixed[i] {
								s += want[i] * want[i]
								q += x[i] * want[i]
							}
						}
						return s, q
					})
					gotSq, gotDot := SpMVRowsPool(offsets, adj, w, x, got, rows, true, p)
					for i := range want {
						if bits(got[i]) != bits(want[i]) {
							t.Fatalf("%s: dst[%d]=%v want %v", label, i, got[i], want[i])
						}
					}
					if bits(gotSq) != bits(wantSq) || bits(gotDot) != bits(wantDot) {
						t.Fatalf("%s: sums (%v, %v) want (%v, %v)", label, gotSq, gotDot, wantSq, wantDot)
					}
					sq, dot := SpMVRowsPool(offsets, adj, w, x, got, rows, false, p)
					if bits(sq) != bits(wantSq) || dot != 0 {
						t.Fatalf("%s: without dot got (%v, %v) want (%v, 0)", label, sq, dot, wantSq)
					}
				}
			}
		}
	}
}

func TestSpMVRowsEmptyGraph(t *testing.T) {
	if s, q := SpMVRowsPool([]int64{0}, nil, nil, nil, nil, nil, true, NewPool(2)); s != 0 || q != 0 {
		t.Fatalf("n=0: got (%v, %v), want (0, 0)", s, q)
	}
	// n > 0 with zero arcs: listed rows are zeroed, unlisted ones kept.
	offsets := []int64{0, 0, 0, 0}
	dst := []float64{1, 2, 3}
	s, q := SpMVRowsPool(offsets, nil, nil, []float64{4, 5, 6}, dst, []int32{0, 2}, true, nil)
	if dst[0] != 0 || dst[1] != 2 || dst[2] != 0 || s != 0 || q != 0 {
		t.Fatalf("arcless rows: dst=%v sums=(%v, %v)", dst, s, q)
	}
}
