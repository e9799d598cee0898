package mdbgp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
)

func testGraph() (*Graph, []int32) {
	return GenerateSocialGraph(SocialGraphConfig{
		N: 1000, Communities: 4, AvgDegree: 12, InFraction: 0.85,
		DegreeExponent: 2, Seed: 1,
	})
}

func TestPartitionDefaults(t *testing.T) {
	g, _ := testGraph()
	res, err := Partition(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.K != 2 {
		t.Fatalf("default K=%d, want 2", res.Assignment.K)
	}
	if res.EdgeLocality <= 0.5 {
		t.Fatalf("locality %.3f, want > 0.5", res.EdgeLocality)
	}
	if len(res.Imbalances) != 2 {
		t.Fatalf("imbalances %v, want 2 dims", res.Imbalances)
	}
	for j, im := range res.Imbalances {
		if im > 0.051 {
			t.Fatalf("dim %d imbalance %.4f > ε", j, im)
		}
	}
	if diff := float64(res.CutEdges) - float64(g.M())*(1-res.EdgeLocality); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("cut/locality inconsistent: %d vs %.3f", res.CutEdges, res.EdgeLocality)
	}
}

func TestPartitionKWay(t *testing.T) {
	g, _ := testGraph()
	res, err := Partition(g, Options{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := StandardWeights(g, WeightVertices, WeightEdges)
	if !IsBalanced(res.Assignment, ws, 0.08) {
		t.Fatalf("4-way imbalance %.4f", MaxImbalance(res.Assignment, ws))
	}
	if res.EdgeLocality < 0.4 {
		t.Fatalf("4-way locality %.3f", res.EdgeLocality)
	}
}

func TestPartitionCustomWeightsAndProjection(t *testing.T) {
	g, _ := testGraph()
	ws, err := StandardWeights(g, WeightVertices, WeightEdges, WeightNeighborDegrees, WeightPageRank)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, Options{Weights: ws, Projection: "dykstra", Iterations: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if MaxImbalance(res.Assignment, ws) > 0.06 {
		t.Fatalf("d=4 imbalance %.4f", MaxImbalance(res.Assignment, ws))
	}
}

// TestPartitionKFarAboveN: at k far above n the recursive split stops at
// empty subgraphs instead of bisecting them down to k = 1. The parts hashes
// are the ones the full recursion gave (each branch derives its own seed, so
// skipping empty branches cannot move a vertex), each level of the
// recursion traces at most one bisect span per vertex, and no span stands
// for an empty subgraph.
func TestPartitionKFarAboveN(t *testing.T) {
	g, _ := GenerateSocialGraph(SocialGraphConfig{N: 200, Communities: 4, AvgDegree: 8, InFraction: 0.85, Seed: 11})
	const k, levels = 1 << 20, 20
	for _, tc := range []struct{ engine, parts string }{
		{"gd", "59791f3fa6a0131359bf7e80c05539d566e3a7f400e049b43a38cee87026a55b"},
		{"multilevel", "59791f3fa6a0131359bf7e80c05539d566e3a7f400e049b43a38cee87026a55b"},
		{"metis", "da092237e2e57799d6d44cc2453f042a53151bef26d0b8c30e640d2b2424a6b8"},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			root := NewTrace("solve")
			res, err := Partition(g, Options{K: k, Engine: tc.engine, Seed: 3, Parallelism: 1, Observer: root})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			binary.Write(h, binary.LittleEndian, res.Assignment.Parts)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.parts {
				t.Fatalf("parts hash %s, want %s", got, tc.parts)
			}
			bisects, empty := 0, 0
			root.Snapshot().Walk(func(v *SpanView) {
				if v.Name == "bisect" {
					bisects++
					if n, _ := v.Attrs["n"].(int); n == 0 {
						empty++
					}
				}
			})
			if bisects > g.N()*levels || empty > 0 {
				t.Fatalf("%d bisect spans, %d of them for empty subgraphs; want at most n·⌈log2 k⌉ = %d, none empty", bisects, empty, g.N()*levels)
			}
		})
	}
}

func TestPartitionDirect(t *testing.T) {
	g, _ := testGraph()
	res, err := PartitionDirect(g, Options{K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := StandardWeights(g, WeightVertices, WeightEdges)
	if !IsBalanced(res.Assignment, ws, 0.051) {
		t.Fatalf("direct imbalance %.4f", MaxImbalance(res.Assignment, ws))
	}
	if res.EdgeLocality < 0.4 {
		t.Fatalf("direct locality %.3f", res.EdgeLocality)
	}
	if _, err := PartitionDirect(g, Options{K: -2}); err == nil {
		t.Fatal("negative K should error")
	}
}

func TestPartitionErrors(t *testing.T) {
	g, _ := testGraph()
	if _, err := Partition(g, Options{K: -1}); err == nil {
		t.Fatal("negative K should error")
	}
	if _, err := Partition(g, Options{Projection: "bogus"}); err == nil {
		t.Fatal("bogus projection should error")
	}
	if _, err := StandardWeights(g); err == nil {
		t.Fatal("no dims should error")
	}
	if _, err := StandardWeights(g, Weight(99)); err == nil {
		t.Fatal("unknown dim should error")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 2 {
		t.Fatalf("round trip m=%d", g2.M())
	}
	g3 := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if g3.M() != g.M() {
		t.Fatal("FromEdges mismatch")
	}
}

func TestClusterSimulation(t *testing.T) {
	g, blocks := testGraph()
	res, err := Partition(g, Options{K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(g, res.Assignment, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	pr, stats := SimulatePageRank(cluster, 10, 0.85)
	if len(pr) != g.N() || stats.TotalWall() <= 0 {
		t.Fatal("PageRank sim broken")
	}
	labels, _ := SimulateConnectedComponents(cluster, 0)
	if len(labels) != g.N() {
		t.Fatal("CC sim broken")
	}
	counts, _ := SimulateMutualFriends(cluster, 0)
	if len(counts) != g.N() {
		t.Fatal("MF sim broken")
	}
	hc, _ := SimulateHypergraphClustering(cluster, 5)
	if len(hc) != g.N() {
		t.Fatal("HC sim broken")
	}
	_ = blocks
}

func TestGenerateRMAT(t *testing.T) {
	g := GenerateRMAT(10, 8, 0.57, 0.19, 0.19, 6)
	if g.N() != 1024 || g.M() == 0 {
		t.Fatalf("RMAT n=%d m=%d", g.N(), g.M())
	}
}
