package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates undirected edges and produces a canonical CSR Graph.
// Duplicate edges and self loops are dropped at Build time. The builder uses
// a counting sort over source vertices, so Build runs in O(n + m·log d̄)
// where d̄ is the average degree (the log factor is the per-row sort).
type Builder struct {
	n    int
	srcs []int32
	dsts []int32
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// Grow ensures the builder accommodates at least n vertices.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge records the undirected edge {u,v}. Self loops are silently
// ignored. Out-of-range endpoints grow the vertex set. Ids outside
// [0, MaxVertexID] panic: the CSR representation stores neighbors as int32,
// and narrowing silently here would corrupt the graph (callers ingesting
// untrusted input should bound ids first — see ReadEdgeListInto).
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		return
	}
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: negative vertex id (%d,%d)", u, v))
	}
	if u > MaxVertexID || v > MaxVertexID {
		panic(fmt.Sprintf("graph: vertex id %d exceeds MaxVertexID (%d)", max(u, v), MaxVertexID))
	}
	if u >= b.n || v >= b.n {
		m := u
		if v > m {
			m = v
		}
		b.Grow(m + 1)
	}
	b.srcs = append(b.srcs, int32(u), int32(v))
	b.dsts = append(b.dsts, int32(v), int32(u))
}

// EdgeCount returns the number of (possibly duplicate) edges added so far.
func (b *Builder) EdgeCount() int { return len(b.srcs) / 2 }

// Build produces the canonical CSR graph and leaves the builder empty.
func (b *Builder) Build() *Graph {
	n := b.n
	counts := make([]int64, n+1)
	for _, s := range b.srcs {
		counts[s+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	adj := make([]int32, len(b.srcs))
	cursor := make([]int64, n)
	copy(cursor, counts[:n])
	for i, s := range b.srcs {
		adj[cursor[s]] = b.dsts[i]
		cursor[s]++
	}
	b.srcs, b.dsts = nil, nil

	// Sort and deduplicate each row, compacting in place.
	offsets := make([]int64, n+1)
	out := int64(0)
	for v := 0; v < n; v++ {
		row := adj[counts[v]:counts[v+1]]
		sortInt32(row)
		offsets[v] = out
		var prev int32 = -1
		for _, w := range row {
			if w == prev {
				continue
			}
			prev = w
			adj[out] = w
			out++
		}
	}
	offsets[n] = out
	adj = adj[:out:out]

	// Dedup can leave an odd asymmetry only if input was asymmetric, which
	// AddEdge prevents; both directions deduplicate identically.
	return &Graph{offsets: offsets, adj: adj}
}

func sortInt32(a []int32) {
	if len(a) < 24 {
		// Insertion sort dominates for the short adjacency rows typical of
		// power-law graphs.
		for i := 1; i < len(a); i++ {
			x := a[i]
			j := i - 1
			for j >= 0 && a[j] > x {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = x
		}
		return
	}
	slices.Sort(a)
}

// Edge is an undirected edge between two vertex ids.
type Edge struct {
	U, V int32
}

// FromEdges builds a graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(int(e.U), int(e.V))
	}
	return b.Build()
}

// Subgraph returns the subgraph induced by the given vertex set together
// with the mapping from new ids to original ids. keep[i] is the original id
// of new vertex i; the order of keep is preserved. Vertices listed twice
// panic.
func Subgraph(g *Graph, keep []int32) (*Graph, []int32) {
	remap := make([]int32, g.N())
	for i := range remap {
		remap[i] = -1
	}
	for newID, old := range keep {
		if remap[old] != -1 {
			panic(fmt.Sprintf("graph: vertex %d listed twice in subgraph", old))
		}
		remap[old] = int32(newID)
	}
	// Rows are copied in g's (sorted) order, so with keep ascending the
	// remap is monotone and every row comes out sorted; only another order
	// needs a per-row sort to stay canonical.
	ascending := slices.IsSorted(keep)
	offsets := make([]int64, len(keep)+1)
	for newID, old := range keep {
		cnt := int64(0)
		for _, w := range g.Neighbors(int(old)) {
			if remap[w] != -1 {
				cnt++
			}
		}
		offsets[newID+1] = offsets[newID] + cnt
	}
	adj := make([]int32, offsets[len(keep)])
	for newID, old := range keep {
		pos := offsets[newID]
		for _, w := range g.Neighbors(int(old)) {
			if nw := remap[w]; nw != -1 {
				adj[pos] = nw
				pos++
			}
		}
		if !ascending {
			sortInt32(adj[offsets[newID]:pos])
		}
	}
	ids := make([]int32, len(keep))
	copy(ids, keep)
	return &Graph{offsets: offsets, adj: adj}, ids
}
