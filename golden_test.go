package mdbgp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mdbgp/internal/gen"
)

// Golden-file regression tests: fixture graphs plus expected partition
// outputs at a pinned seed, committed under testdata/golden/. Any change to
// the partition an engine path produces — a quality regression, a
// determinism break, an accidental algorithmic change — fails loudly here.
//
// To regenerate after an INTENTIONAL algorithm change:
//
//	go test -run TestGolden -update .
//
// and review the diff of testdata/golden/ like any other code change.
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden/")

const goldenDir = "testdata/golden"

// goldenGraph loads the committed fixture, regenerating it under -update.
// The fixture is a 400-vertex DC-SBM social graph: community structure for
// the multilevel path, degree skew so vertex and edge balance disagree.
func goldenGraph(t *testing.T) *Graph {
	t.Helper()
	path := filepath.Join(goldenDir, "social-400.txt")
	if *update {
		g, _ := GenerateSocialGraph(SocialGraphConfig{
			N: 400, Communities: 4, AvgDegree: 10, InFraction: 0.85,
			DegreeExponent: 2, Seed: 1234,
		})
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteEdgeList(f, g); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	defer f.Close()
	g, err := ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkGolden formats the assignment and compares it byte-for-byte with the
// committed expectation (rewriting it under -update).
func checkGolden(t *testing.T, name string, a *Assignment) {
	t.Helper()
	var buf bytes.Buffer
	for v, p := range a.Parts {
		fmt.Fprintf(&buf, "%d %d\n", v, p)
	}
	path := filepath.Join(goldenDir, name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		wantLines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
		diffs := 0
		for v, p := range a.Parts {
			line := fmt.Sprintf("%d %d", v, p)
			if v >= len(wantLines) || line != string(wantLines[v]) {
				diffs++
			}
		}
		t.Fatalf("%s diverged from the golden partition (%d/%d vertices moved).\n"+
			"If this is an intentional algorithm change, regenerate with:\n"+
			"\tgo test -run TestGolden -update .\nand review the diff.",
			name, diffs, len(a.Parts))
	}
}

// sanity guards the goldens themselves: a committed expectation must be a
// valid, balanced, non-trivial partition — a golden file of garbage would
// otherwise lock garbage in.
func sanity(t *testing.T, g *Graph, res *Result, k int, eps float64) {
	t.Helper()
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Assignment.K != k {
		t.Fatalf("K = %d, want %d", res.Assignment.K, k)
	}
	ws, err := StandardWeights(g, WeightVertices, WeightEdges)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBalanced(res.Assignment, ws, eps+0.03) {
		t.Fatalf("golden partition imbalance %.4f exceeds ε+slack", MaxImbalance(res.Assignment, ws))
	}
	if res.EdgeLocality < 0.3 {
		t.Fatalf("golden partition locality %.3f is implausibly poor", res.EdgeLocality)
	}
}

func TestGoldenBisect(t *testing.T) {
	g := goldenGraph(t)
	res, err := Partition(g, Options{K: 2, Seed: 42, Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	sanity(t, g, res, 2, 0.05)
	checkGolden(t, "bisect-k2-seed42.parts", res.Assignment)
}

func TestGoldenRecursiveKWay(t *testing.T) {
	g := goldenGraph(t)
	// k=5 exercises the asymmetric split path of recursive bisection.
	res, err := Partition(g, Options{K: 5, Seed: 42, Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	sanity(t, g, res, 5, 0.05)
	checkGolden(t, "kway-k5-seed42.parts", res.Assignment)
}

func TestGoldenMultilevel(t *testing.T) {
	g := goldenGraph(t)
	// CoarsenTo below n forces a real hierarchy on the 400-vertex fixture.
	res, err := Partition(g, Options{
		K: 2, Seed: 42, Iterations: 60,
		Engine: "multilevel", CoarsenTo: 150, RefineIterations: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sanity(t, g, res, 2, 0.05)
	checkGolden(t, "multilevel-k2-seed42.parts", res.Assignment)
}

// baselineSanity guards the baseline-engine goldens: these engines promise
// weaker balance than GD (Fennel caps only vertex count, SHP only a fixed
// combined dimension), so the check is validity, non-trivial locality and a
// sane vertex balance rather than the full ε guarantee.
func baselineSanity(t *testing.T, g *Graph, res *Result, k int) {
	t.Helper()
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Assignment.K != k {
		t.Fatalf("K = %d, want %d", res.Assignment.K, k)
	}
	if res.EdgeLocality < 0.3 {
		t.Fatalf("golden partition locality %.3f is implausibly poor", res.EdgeLocality)
	}
	if res.Imbalances[0] > 0.25 {
		t.Fatalf("golden partition vertex imbalance %.3f is implausibly lopsided", res.Imbalances[0])
	}
}

// TestGoldenFennel and TestGoldenSHP pin the baseline engines' exact output
// at seed 42 — the same anchors the daemon determinism suite compares its
// HTTP responses against (cmd/mdbgpd). Default iterations are used so the
// library options canonicalize identically to a bare
// ?k=4&seed=42&engine=... daemon request.
func TestGoldenFennel(t *testing.T) {
	g := goldenGraph(t)
	res, err := Partition(g, Options{Engine: "fennel", K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	baselineSanity(t, g, res, 4)
	checkGolden(t, "fennel-k4-seed42.parts", res.Assignment)
}

func TestGoldenSHP(t *testing.T) {
	g := goldenGraph(t)
	res, err := Partition(g, Options{Engine: "shp", K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	baselineSanity(t, g, res, 4)
	checkGolden(t, "shp-k4-seed42.parts", res.Assignment)
}

// goldenDelta loads the committed ~1%-churn delta fixture against the
// social-400 graph, regenerating it deterministically under -update.
func goldenDelta(t *testing.T, g *Graph) *EdgeDelta {
	t.Helper()
	path := filepath.Join(goldenDir, "delta-400.txt")
	if *update {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteEdgeDelta(f, gen.PerturbDelta(g, 100, 7, 13)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing delta fixture (run with -update to create): %v", err)
	}
	defer f.Close()
	d, err := ParseEdgeDelta(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestGoldenIncremental pins the full incremental scenario: cold base solve,
// committed edge delta, warm-started re-solve — the delta parser, the
// application semantics and the warm trajectory are all locked by one file.
func TestGoldenIncremental(t *testing.T) {
	g := goldenGraph(t)
	base, err := Partition(g, Options{K: 4, Seed: 42, Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	target, stats := ApplyEdgeDelta(g, goldenDelta(t, g))
	if stats.AddedNew == 0 || stats.RemovedExisting == 0 {
		t.Fatalf("degenerate delta fixture: %+v", stats)
	}
	if churn := stats.Churn(g.M()); churn > 0.05 {
		t.Fatalf("delta fixture churn %.3f is no longer small", churn)
	}
	res, err := PartitionWarm(target, base.Assignment.Parts, Options{K: 4, Seed: 42, Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	sanity(t, target, res, 4, 0.05)
	checkGolden(t, "incremental-k4-seed42.parts", res.Assignment)
}

// TestGoldenParallelismInvariance re-runs a golden configuration at several
// worker counts against the same committed file — the golden files double
// as cross-worker determinism anchors.
func TestGoldenParallelismInvariance(t *testing.T) {
	g := goldenGraph(t)
	for _, p := range []int{1, 2, 8} {
		res, err := Partition(g, Options{K: 2, Seed: 42, Iterations: 60, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		// Never update from here; the p=0 default path in TestGoldenBisect
		// owns the file.
		if *update {
			continue
		}
		checkGolden(t, "bisect-k2-seed42.parts", res.Assignment)
	}
}
