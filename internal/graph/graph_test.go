package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var zero Graph
	if zero.N() != 0 || zero.M() != 0 {
		t.Fatalf("zero value graph: n=%d m=%d", zero.N(), zero.M())
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("cycle: n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("degree(%d)=%d, want 2", v, g.Degree(v))
		}
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(1, 1) // self loop
	b.AddEdge(2, 2) // self loop
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("m=%d, want 1", g.M())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("degree(2)=%d, want 0", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderGrowsVertexSet(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.N() != 10 {
		t.Fatalf("n=%d, want 10", g.N())
	}
	if !g.HasEdge(5, 9) || !g.HasEdge(9, 5) {
		t.Fatal("edge 5-9 missing")
	}
}

func TestHasEdge(t *testing.T) {
	g := path(5)
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, false}, {3, 4, true},
		{4, 4, false}, {-1, 0, false}, {0, 99, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d)=%v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEachEdgeVisitsOncePerEdge(t *testing.T) {
	g := path(6)
	seen := map[[2]int]int{}
	g.EachEdge(func(u, v int) bool {
		if u >= v {
			t.Fatalf("EachEdge emitted u=%d >= v=%d", u, v)
		}
		seen[[2]int{u, v}]++
		return true
	})
	if int64(len(seen)) != g.M() {
		t.Fatalf("visited %d edges, want %d", len(seen), g.M())
	}
	for e, c := range seen {
		if c != 1 {
			t.Fatalf("edge %v visited %d times", e, c)
		}
	}
}

func TestEachEdgeEarlyStop(t *testing.T) {
	g := path(10)
	count := 0
	g.EachEdge(func(u, v int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

func TestMaxDegreeAndDegrees(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.Build()
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree %d, want 3", g.MaxDegree())
	}
	ds := g.Degrees()
	want := []int{3, 1, 1, 1, 0}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("degrees = %v, want %v", ds, want)
		}
	}
}

// Property: degree sum equals twice the edge count, for arbitrary random
// multigraph inputs (duplicates and self loops included in input).
func TestQuickDegreeSum(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%64 + 2
		m := int(mRaw) % 512
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		sum := int64(0)
		for v := 0; v < g.N(); v++ {
			sum += int64(g.Degree(v))
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: building from the emitted edge list reproduces the same graph.
func TestQuickEdgeListRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		b := NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		if g2.M() != g.M() {
			return false
		}
		equal := true
		g.EachEdge(func(u, v int) bool {
			if !g2.HasEdge(u, v) {
				equal = false
				return false
			}
			return true
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# header\n% matrix-market style comment\n0 1\n\n1 2 extra-ignored\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m=%d, want 2", g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 x\n", "-1 2\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestSubgraphInduced(t *testing.T) {
	// Square 0-1-2-3 with a diagonal 0-2 and a pendant 4 attached to 3.
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	g := b.Build()

	sub, ids := Subgraph(g, []int32{0, 1, 2})
	if sub.N() != 3 || sub.M() != 3 { // triangle 0-1-2
		t.Fatalf("sub: n=%d m=%d, want 3,3", sub.N(), sub.M())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("ids=%v", ids)
	}
}

func TestSubgraphNonMonotoneOrder(t *testing.T) {
	g := path(4)
	sub, ids := Subgraph(g, []int32{3, 2, 1})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("sub: n=%d m=%d, want 3,2", sub.N(), sub.M())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// new 0 = old 3, new 1 = old 2: must be adjacent.
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatalf("subgraph structure wrong: ids=%v", ids)
	}
}

func TestSubgraphEmptyKeep(t *testing.T) {
	g := path(4)
	sub, ids := Subgraph(g, nil)
	if sub.N() != 0 || sub.M() != 0 || len(ids) != 0 {
		t.Fatalf("empty keep: n=%d m=%d ids=%v", sub.N(), sub.M(), ids)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSubgraphDuplicatePanics(t *testing.T) {
	g := path(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate vertex in keep")
		}
	}()
	Subgraph(g, []int32{1, 1})
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestSortInt32LongRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	row := make([]int32, 200)
	for i := range row {
		row[i] = int32(rng.Intn(1000))
	}
	sortInt32(row)
	for i := 1; i < len(row); i++ {
		if row[i-1] > row[i] {
			t.Fatal("long row not sorted")
		}
	}
}

func TestStringer(t *testing.T) {
	g := path(3)
	if got := g.String(); got != "graph{n=3 m=2}" {
		t.Fatalf("String()=%q", got)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int64
		adj     []int32
		want    string
	}{
		{"offsets start", []int64{1, 1}, []int32{}, "graph: offsets[0] = 1, want 0"},
		{"offsets end", []int64{0, 1}, []int32{}, "graph: offsets[n] = 1, want 0"},
		{"offsets not monotone", []int64{0, 2, 1, 2}, []int32{1, 2}, "graph: offsets not monotone at 1"},
		{"out-of-range neighbor", []int64{0, 1, 1}, []int32{5}, "graph: vertex 0 has out-of-range neighbor 5"},
		{"self loop", []int64{0, 1, 1}, []int32{0}, "graph: self loop at 0"},
		{"unsorted row", []int64{0, 2, 3, 4}, []int32{2, 1, 0, 0}, "graph: adjacency of 0 not strictly sorted"},
		{"duplicate arc", []int64{0, 2, 3}, []int32{1, 1, 0}, "graph: adjacency of 0 not strictly sorted"},
		// 0 lists 1 and 2, but 2 does not list 0.
		{"higher neighbor's reverse arc missing", []int64{0, 2, 3, 3}, []int32{1, 2, 0}, "graph: edge 0->2 not symmetric"},
		// 2 lists 0, but 0 does not list 2.
		{"lower neighbor's reverse arc missing", []int64{0, 1, 2, 3}, []int32{1, 0, 0}, "graph: edge 2->0 not symmetric"},
		// 3 lists 0, but 0 (of higher degree) does not list 3. A per-arc
		// HasEdge(0, 3) searches the smaller row, 3's, and finds the arc.
		{"reverse arc missing from a higher-degree row", []int64{0, 2, 3, 4, 5}, []int32{1, 2, 0, 0, 0}, "graph: edge 3->0 not symmetric"},
		// Row 2 holds the reverse arc 2->0, but behind 2->1 in an unsorted
		// row: the first arc that looks for it reports the asymmetry.
		{"reverse arc present but out of place", []int64{0, 2, 4, 6}, []int32{1, 2, 0, 2, 1, 0}, "graph: edge 0->2 not symmetric"},
		// Row 2 holds 1's reverse arc behind an entry (0) that 0 never
		// lists back: the unmatched entry is reported, not the pair 1-2.
		{"reverse arc behind an unmatched entry", []int64{0, 0, 1, 3}, []int32{2, 0, 1}, "graph: edge 2->0 not symmetric"},
	}
	for _, tc := range cases {
		err := FromCSR(tc.offsets, tc.adj).Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// validateByBinarySearch is an O(m log d) reference symmetry check: one
// binary search of row w for v per arc v->w, in row-major order.
func validateByBinarySearch(g *Graph) error {
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if _, ok := slices.BinarySearch(g.Neighbors(int(w)), int32(v)); !ok {
				return fmt.Errorf("graph: edge %d->%d not symmetric", v, w)
			}
		}
	}
	return nil
}

// TestValidateSymmetryMatchesBinarySearch checks that on CSRs with sorted
// rows the cursor merge reports exactly the asymmetry the per-arc binary
// search did: random graphs lose or gain one direction of random arcs.
func TestValidateSymmetryMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rejected := 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		rows := make([][]int32, n)
		for v := range rows {
			rows[v] = append([]int32(nil), g.Neighbors(v)...)
		}
		for e := rng.Intn(3); e > 0; e-- {
			v := rng.Intn(n)
			if len(rows[v]) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(rows[v]))
				rows[v] = append(rows[v][:i], rows[v][i+1:]...)
				continue
			}
			if w := int32(rng.Intn(n)); int(w) != v && !slices.Contains(rows[v], w) {
				rows[v] = append(rows[v], w)
				slices.Sort(rows[v])
			}
		}
		offsets := []int64{0}
		var adj []int32
		for _, r := range rows {
			adj = append(adj, r...)
			offsets = append(offsets, int64(len(adj)))
		}
		h := FromCSR(offsets, adj)
		got, want := h.Validate(), validateByBinarySearch(h)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Validate() = %v, binary search says %v", trial, got, want)
		}
		if got != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no trial produced an asymmetric CSR")
	}
}
