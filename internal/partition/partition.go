// Package partition defines the assignment type shared by all partitioners
// and the quality metrics reported throughout the paper's evaluation: edge
// locality (fraction of uncut edges), cut size, and per-dimension imbalance
// (max_i w(V_i) / avg_i w(V_i) − 1).
package partition

import (
	"fmt"

	"mdbgp/internal/graph"
)

// Assignment maps every vertex to one of K parts.
type Assignment struct {
	Parts []int32 // len = number of vertices; Parts[v] ∈ [0, K)
	K     int
}

// NewAssignment allocates an all-zero assignment for n vertices and k parts.
func NewAssignment(n, k int) *Assignment {
	return &Assignment{Parts: make([]int32, n), K: k}
}

// Validate checks that every vertex is assigned to a part in [0, K).
func (a *Assignment) Validate() error {
	if a.K <= 0 {
		return fmt.Errorf("partition: K = %d, want > 0", a.K)
	}
	for v, p := range a.Parts {
		if p < 0 || int(p) >= a.K {
			return fmt.Errorf("partition: vertex %d assigned to part %d, K=%d", v, p, a.K)
		}
	}
	return nil
}

// PartSizes returns the number of vertices in each part.
func (a *Assignment) PartSizes() []int64 {
	sizes := make([]int64, a.K)
	for _, p := range a.Parts {
		sizes[p]++
	}
	return sizes
}

// Members returns the vertex ids assigned to part p, in increasing order.
func (a *Assignment) Members(p int) []int32 {
	var out []int32
	for v, q := range a.Parts {
		if int(q) == p {
			out = append(out, int32(v))
		}
	}
	return out
}

// CutEdges returns the number of edges whose endpoints lie in different
// parts.
func CutEdges(g *graph.Graph, a *Assignment) int64 {
	cut := int64(0)
	g.EachEdge(func(u, v int) bool {
		if a.Parts[u] != a.Parts[v] {
			cut++
		}
		return true
	})
	return cut
}

// EdgeLocality returns the fraction of edges with both endpoints in the same
// part — the paper's primary quality metric (it is proportional to the
// number of local messages in a vertex-centric job). Returns 1 for edgeless
// graphs.
func EdgeLocality(g *graph.Graph, a *Assignment) float64 {
	return LocalityFromCut(CutEdges(g, a), g.M())
}

// LocalityFromCut is the edge locality of a partition that cuts cut of a
// graph's m edges: 1 − cut/m, and 1 for edgeless graphs.
func LocalityFromCut(cut, m int64) float64 {
	if m == 0 {
		return 1
	}
	return 1 - float64(cut)/float64(m)
}

// Loads returns the per-part totals of a weight function.
func Loads(a *Assignment, w []float64) []float64 {
	loads := make([]float64, a.K)
	for v, p := range a.Parts {
		loads[p] += w[v]
	}
	return loads
}

// Imbalance returns max_i w(V_i) / avg_i w(V_i) − 1 for one weight function,
// the metric plotted in Figure 4 of the paper. Zero total weight yields 0.
func Imbalance(a *Assignment, w []float64) float64 {
	loads := Loads(a, w)
	total, max := 0.0, 0.0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total <= 0 {
		return 0
	}
	avg := total / float64(a.K)
	return max/avg - 1
}

// MaxImbalance returns the worst Imbalance across several weight functions —
// "max imbalance over all dimensions" in Figures 9 and 15 and Table 3.
func MaxImbalance(a *Assignment, weights [][]float64) float64 {
	max := 0.0
	for _, w := range weights {
		if im := Imbalance(a, w); im > max {
			max = im
		}
	}
	return max
}

// IsBalanced reports whether every part's weight is within (1±ε)·total/K for
// every weight function — the ε-balance requirement of Definition 2.1.
func IsBalanced(a *Assignment, weights [][]float64, eps float64) bool {
	for _, w := range weights {
		loads := Loads(a, w)
		total := 0.0
		for _, l := range loads {
			total += l
		}
		avg := total / float64(a.K)
		for _, l := range loads {
			if l > (1+eps)*avg+1e-9 || l < (1-eps)*avg-1e-9 {
				return false
			}
		}
	}
	return true
}

// VertexImbalance is Imbalance with the unit weight function.
func VertexImbalance(a *Assignment) float64 {
	w := make([]float64, len(a.Parts))
	for i := range w {
		w[i] = 1
	}
	return Imbalance(a, w)
}

// EdgeImbalance is Imbalance with the degree weight function (each part's
// load is the sum of degrees of its vertices, i.e. ≈ 2× its edge count plus
// its cut stubs).
func EdgeImbalance(g *graph.Graph, a *Assignment) float64 {
	w := make([]float64, g.N())
	for v := range w {
		w[v] = float64(g.Degree(v))
	}
	return Imbalance(a, w)
}

// LocalEdgeShares returns, for each part, the fraction of its incident edge
// stubs that are local (both endpoints inside the part) — the per-worker
// "% local edges" annotation of Figure 1.
func LocalEdgeShares(g *graph.Graph, a *Assignment) []float64 {
	local := make([]float64, a.K)
	total := make([]float64, a.K)
	g.EachEdge(func(u, v int) bool {
		pu, pv := a.Parts[u], a.Parts[v]
		total[pu]++
		total[pv]++
		if pu == pv {
			local[pu] += 2
		}
		return true
	})
	out := make([]float64, a.K)
	for i := range out {
		if total[i] > 0 {
			out[i] = local[i] / total[i]
		} else {
			out[i] = 1
		}
	}
	return out
}
