// Package graph provides a compact immutable undirected graph in compressed
// sparse row (CSR) form, a counting-sort based builder, induced subgraphs and
// a simple edge-list exchange format.
//
// Vertices are dense integers 0..N()-1. The adjacency of every vertex is
// stored sorted and deduplicated; every undirected edge {u,v} appears twice,
// once in each endpoint's adjacency list. Self loops are dropped by the
// builder. The representation is optimized for the access pattern of the
// partitioner: sequential sweeps over all adjacency lists (sparse
// matrix–vector products) and O(deg) neighborhood scans.
package graph

import (
	"fmt"
)

// Graph is an immutable undirected graph in CSR form.
//
// The zero value is the empty graph. Graphs are safe for concurrent readers.
type Graph struct {
	offsets []int64 // len N()+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []int32 // sorted neighbor ids, each undirected edge stored twice
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int64 { return int64(len(g.adj)) / 2 }

// DirectedSize returns the number of stored adjacency entries (2·M()).
func (g *Graph) DirectedSize() int64 { return int64(len(g.adj)) }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u,v} is present, using binary
// search over the smaller adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(ns[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && int(ns[lo]) == v
}

// MaxDegree returns the largest vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Degrees returns a freshly allocated slice of all vertex degrees.
func (g *Graph) Degrees() []int {
	ds := make([]int, g.N())
	for v := range ds {
		ds[v] = g.Degree(v)
	}
	return ds
}

// EachEdge calls fn(u, v) exactly once per undirected edge, with u < v.
// Iteration stops early if fn returns false.
func (g *Graph) EachEdge(fn func(u, v int) bool) {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			v := int(w)
			if v <= u {
				continue
			}
			if !fn(u, v) {
				return
			}
		}
	}
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

// Validate checks the CSR invariants: monotone offsets, in-range sorted
// deduplicated adjacency without self loops, and symmetry (u in adj(v) iff
// v in adj(u)). It runs in O(n + m) time: the offsets are checked first, so
// every row can be indexed safely, and symmetry is a cursor merge — rows are
// visited in ascending order, so the vertices that list w arrive in
// ascending order too, and one forward cursor per row finds each reverse
// arc where a sorted row must hold it.
func (g *Graph) Validate() error {
	n := g.N()
	if len(g.offsets) > 0 {
		if g.offsets[0] != 0 {
			return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
		}
		if g.offsets[n] != int64(len(g.adj)) {
			return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[n], len(g.adj))
		}
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	// cur[w] is the first arc of row w not yet passed by the merge.
	cur := make([]int64, n)
	copy(cur, g.offsets)
	for v := 0; v < n; v++ {
		ns := g.Neighbors(v)
		for i, w := range ns {
			if int(w) < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			// Entries of row w below v have no reverse arc among the rows
			// already visited; they are skipped here and reported when row
			// w itself is checked.
			c, end := cur[w], g.offsets[w+1]
			for c < end && int(g.adj[c]) < v {
				c++
			}
			if c == end || int(g.adj[c]) != v {
				return fmt.Errorf("graph: edge %d->%d not symmetric", v, w)
			}
			cur[w] = c + 1
		}
	}
	return nil
}

// FromCSR constructs a graph directly from CSR arrays. The arrays are taken
// over by the graph and must satisfy Validate; this is intended for internal
// constructors (builder, subgraph, coarsening) that produce canonical CSR.
func FromCSR(offsets []int64, adj []int32) *Graph {
	return &Graph{offsets: offsets, adj: adj}
}

// CSR exposes the raw CSR arrays for zero-copy consumers (the weighted
// coarsening wrapper, SpMV kernels). The returned slices alias the graph's
// internal storage and must not be modified.
func (g *Graph) CSR() (offsets []int64, adj []int32) {
	return g.offsets, g.adj
}
