package project

// FuzzProject checks the invariants every projection method must keep on
// randomized instances:
//
//  1. the output always lies in the cube B∞ (within tolerance);
//  2. Workers=1 and Workers=3 agree bit-for-bit (at fuzz sizes n ≤ 64 both
//     take the single-chunk path, so this only guards the Options plumbing;
//     the multi-chunk parallel machinery is covered by
//     TestProjectDeterministicAcrossWorkersMultiChunk below);
//  3. the exact method (d ≤ 2) lands inside every slab when it reports
//     success, and is idempotent (projecting its output is a no-op);
//  4. no NaN/Inf coordinates ever appear.

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzInstance derives a deterministic instance from the fuzz inputs.
func fuzzInstance(seed int64, n, d int, centerFrac, widthFrac float64) ([]float64, []Constraint) {
	rng := rand.New(rand.NewSource(seed))
	y := make([]float64, n)
	for i := range y {
		y[i] = rng.NormFloat64() * 1.5
	}
	if centerFrac < -1 {
		centerFrac = -1
	} else if centerFrac > 1 {
		centerFrac = 1
	}
	if widthFrac < 0 {
		widthFrac = -widthFrac
	}
	if widthFrac > 0.5 || math.IsNaN(widthFrac) {
		widthFrac = 0.05
	}
	if math.IsNaN(centerFrac) {
		centerFrac = 0
	}
	cons := make([]Constraint, d)
	for j := range cons {
		w := make([]float64, n)
		total := 0.0
		for i := range w {
			w[i] = rng.Float64()*2 + 0.01
			total += w[i]
		}
		center := centerFrac * total * 0.5
		half := widthFrac * total
		cons[j] = Constraint{W: w, Lo: center - half, Hi: center + half}
	}
	return y, cons
}

func checkBoxAndFinite(t *testing.T, label string, x []float64) {
	t.Helper()
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: coordinate %d is %v", label, i, v)
		}
		if v > 1+1e-9 || v < -1-1e-9 {
			t.Fatalf("%s: coordinate %d = %v outside the cube", label, i, v)
		}
	}
}

func FuzzProject(f *testing.F) {
	f.Add(int64(1), 8, 1, 0.0, 0.05)
	f.Add(int64(2), 40, 2, 0.3, 0.1)
	f.Add(int64(3), 64, 3, -0.5, 0.02)
	f.Add(int64(4), 5, 2, 0.9, 0.0)
	f.Add(int64(5), 33, 1, -1.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, n, d int, centerFrac, widthFrac float64) {
		n = 1 + abs(n)%64
		d = 1 + abs(d)%3
		y, cons := fuzzInstance(seed, n, d, centerFrac, widthFrac)
		tol := 1e-6 * (1 + cons[0].TotalWeight())

		for _, m := range []Method{AlternatingOneShot, Alternating, DykstraMethod, Exact, Nested} {
			for _, center := range []bool{false, true} {
				if center && m != AlternatingOneShot && m != Alternating {
					continue
				}
				opt := Options{Method: m, Center: center, Workers: 1}
				dst := make([]float64, n)
				err := Project(dst, y, cons, opt, nil)

				// Worker determinism: the parallel path must be
				// bit-identical to the serial one.
				optP := opt
				optP.Workers = 3
				dstP := make([]float64, n)
				errP := Project(dstP, y, cons, optP, nil)
				if (err == nil) != (errP == nil) {
					t.Fatalf("%v: err %v with 1 worker, %v with 3", m, err, errP)
				}
				if err != nil {
					continue // infeasible instance: nothing more to check
				}
				// In place: dst == y must give the same bits as a separate dst.
				inPlace := append([]float64(nil), y...)
				if err := Project(inPlace, inPlace, cons, opt, nil); err != nil {
					t.Fatalf("%v center=%v: in-place projection failed: %v", m, center, err)
				}
				for i := range dst {
					if dst[i] != dstP[i] {
						t.Fatalf("%v center=%v: output[%d] differs across workers: %v vs %v",
							m, center, i, dst[i], dstP[i])
					}
					if math.Float64bits(dst[i]) != math.Float64bits(inPlace[i]) {
						t.Fatalf("%v center=%v: in-place output[%d] = %v, want %v",
							m, center, i, inPlace[i], dst[i])
					}
				}
				checkBoxAndFinite(t, m.String(), dst)

				// The exact method guarantees feasibility and idempotence
				// for d ≤ 2 (d > 2 delegates to tight-tolerance Dykstra,
				// which only approximates).
				if m == Exact && d <= 2 {
					for j, c := range cons {
						if !c.Satisfied(dst, tol) {
							t.Fatalf("exact: constraint %d violated: value %v not in [%v, %v]",
								j, c.Value(dst), c.Lo, c.Hi)
						}
					}
					again := make([]float64, n)
					if err := Project(again, dst, cons, opt, nil); err != nil {
						t.Fatalf("exact: re-projection failed: %v", err)
					}
					for i := range again {
						if math.Abs(again[i]-dst[i]) > 1e-7 {
							t.Fatalf("exact not idempotent at %d: %v -> %v", i, dst[i], again[i])
						}
					}
				}
			}
		}
	})
}

// The fuzzer keeps n small for throughput, which stays below vecmath's
// 4096-element chunk size; this companion test runs every method on a
// multi-chunk instance so the parallel reduction machinery itself is
// exercised and must stay bit-identical across worker counts.
func TestProjectDeterministicAcrossWorkersMultiChunk(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		y, cons := fuzzInstance(17, 12000, d, 0.2, 0.03)
		for _, m := range []Method{AlternatingOneShot, Alternating, DykstraMethod, Exact} {
			ref := make([]float64, len(y))
			if err := Project(ref, y, cons, Options{Method: m, Center: true, Workers: 1}, nil); err != nil {
				t.Fatalf("d=%d %v workers=1: %v", d, m, err)
			}
			for _, w := range []int{2, 4, 8} {
				got := make([]float64, len(y))
				if err := Project(got, y, cons, Options{Method: m, Center: true, Workers: w}, nil); err != nil {
					t.Fatalf("d=%d %v workers=%d: %v", d, m, w, err)
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("d=%d %v workers=%d: output[%d] = %v, want %v (not bit-identical)",
							d, m, w, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		if v == math.MinInt {
			return 0
		}
		return -v
	}
	return v
}
