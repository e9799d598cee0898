package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mdbgp"
	"mdbgp/internal/gen"
	"mdbgp/internal/wire"
)

func writeTestGraph(t *testing.T, dir string) (string, *mdbgp.Graph) {
	t.Helper()
	g, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{
		N: 600, Communities: 4, AvgDegree: 10, InFraction: 0.85, Seed: 3,
	})
	path := filepath.Join(dir, "graph.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := mdbgp.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	return path, g
}

// readParts loads a "vertex part" output file.
func readParts(t *testing.T, path string, n, k int) *mdbgp.Assignment {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	asgn := &mdbgp.Assignment{Parts: make([]int32, n), K: k}
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("bad output line %q", sc.Text())
		}
		v, _ := strconv.Atoi(fields[0])
		p, _ := strconv.Atoi(fields[1])
		asgn.Parts[v] = int32(p)
		lines++
	}
	if lines != n {
		t.Fatalf("output has %d lines, want %d", lines, n)
	}
	return asgn
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in, g := writeTestGraph(t, dir)
	out := filepath.Join(dir, "parts.txt")
	if err := run(config{in: in, out: out, k: 4, eps: 0.05, dims: "vertices,edges", iters: 60, seed: 42, par: 2}); err != nil {
		t.Fatal(err)
	}
	asgn := readParts(t, out, g.N(), 4)
	if err := asgn.Validate(); err != nil {
		t.Fatal(err)
	}
	ws, _ := mdbgp.StandardWeights(g, mdbgp.WeightVertices, mdbgp.WeightEdges)
	if !mdbgp.IsBalanced(asgn, ws, 0.08) {
		t.Fatalf("CLI output imbalance %.4f", mdbgp.MaxImbalance(asgn, ws))
	}
	if mdbgp.EdgeLocality(g, asgn) < 0.3 {
		t.Fatalf("CLI output locality %.3f", mdbgp.EdgeLocality(g, asgn))
	}
}

// TestRunTrace: -trace writes the solve's span tree as JSON, populated down
// to the per-bisection gd spans with convergence attributes.
func TestRunTrace(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeTestGraph(t, dir)
	out := filepath.Join(dir, "parts.txt")
	tracePath := filepath.Join(dir, "trace.json")
	if err := run(config{in: in, out: out, k: 4, eps: 0.05, dims: "vertices,edges", iters: 40, seed: 42, tracePath: tracePath}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var v mdbgp.SpanView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if v.Name != "solve" || v.CountSpans() < 4 {
		t.Fatalf("trace is not a populated span tree: %s", v.Structure())
	}
	gd := 0
	v.Walk(func(sp *mdbgp.SpanView) {
		if sp.Name == "gd" {
			gd++
			if _, ok := sp.Float("final_locality"); !ok {
				t.Fatal("gd span lacks final_locality")
			}
		}
	})
	if gd < 3 {
		t.Fatalf("k=4 trace has %d gd spans, want >= 3", gd)
	}
}

func TestRunAllDimensions(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeTestGraph(t, dir)
	out := filepath.Join(dir, "parts.txt")
	err := run(config{in: in, out: out, k: 2, eps: 0.05, dims: "vertices,edges,neighbor-degrees,pagerank", iters: 30, projection: "dykstra", seed: 1})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeTestGraph(t, dir)
	out := filepath.Join(dir, "parts.txt")
	base := config{in: in, out: out, k: 2, eps: 0.05, dims: "vertices", iters: 10, seed: 1, par: 1}

	c := base
	c.in = filepath.Join(dir, "missing.txt")
	if err := run(c); err == nil {
		t.Fatal("missing input should error")
	}
	c = base
	c.dims = "bogus-dim"
	if err := run(c); err == nil {
		t.Fatal("unknown dimension should error")
	}
	c = base
	c.projection = "bogus-projection"
	if err := run(c); err == nil {
		t.Fatal("unknown projection should error")
	}
	c = base
	c.deltaPath = filepath.Join(dir, "missing-delta.txt")
	if err := run(c); err == nil {
		t.Fatal("missing delta file should error")
	}
	c = base
	c.basePath = filepath.Join(dir, "missing-base.txt")
	if err := run(c); err == nil {
		t.Fatal("missing base file should error")
	}
	badDelta := filepath.Join(dir, "bad-delta.txt")
	if err := os.WriteFile(badDelta, []byte("1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c = base
	c.deltaPath = badDelta
	if err := run(c); err == nil {
		t.Fatal("unsigned delta line should error")
	}
}

func TestRunMultilevel(t *testing.T) {
	dir := t.TempDir()
	in, g := writeTestGraph(t, dir)
	out := filepath.Join(dir, "parts.txt")
	// Small graphs fall back to direct GD inside the V-cycle; force a real
	// hierarchy with a low coarsening threshold.
	if err := run(config{in: in, out: out, k: 2, eps: 0.05, dims: "vertices,edges", iters: 60, seed: 42, par: 1, engine: "multilevel", coarsenTo: 150, refineIter: 8}); err != nil {
		t.Fatal(err)
	}
	readParts(t, out, g.N(), 2)
}

// TestRunEngines drives every registered engine through the CLI and checks
// each writes a valid full assignment (the `mdbgp -engine shp` acceptance
// path).
func TestRunEngines(t *testing.T) {
	dir := t.TempDir()
	in, g := writeTestGraph(t, dir)
	for _, name := range mdbgp.EngineNames() {
		out := filepath.Join(dir, "parts-"+name+".txt")
		if err := run(config{in: in, out: out, k: 4, eps: 0.05, dims: "vertices,edges", iters: 40, seed: 42, engine: name}); err != nil {
			t.Fatalf("engine %s: %v", name, err)
		}
		asgn := readParts(t, out, g.N(), 4)
		if err := asgn.Validate(); err != nil {
			t.Fatalf("engine %s: %v", name, err)
		}
		if loc := mdbgp.EdgeLocality(g, asgn); loc < 0.3 {
			t.Fatalf("engine %s: locality %.3f", name, loc)
		}
	}
}

func TestRunEngineErrors(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeTestGraph(t, dir)
	out := filepath.Join(dir, "parts.txt")
	base := config{in: in, out: out, k: 2, eps: 0.05, dims: "vertices", iters: 10, seed: 1}

	c := base
	c.engine = "bogus-engine"
	if err := run(c); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("unknown engine error = %v", err)
	}
	// A cold-only engine cannot warm-start from -base.
	parts1 := filepath.Join(dir, "parts1.txt")
	if err := run(config{in: in, out: parts1, k: 2, eps: 0.05, dims: "vertices", iters: 10, seed: 1}); err != nil {
		t.Fatal(err)
	}
	c = base
	c.engine = "shp"
	c.basePath = parts1
	if err := run(c); err == nil || !strings.Contains(err.Error(), "warm starts") {
		t.Fatalf("cold-only engine with -base error = %v", err)
	}
}

// TestRunIncremental drives the full offline incremental flow: cold solve,
// write a delta, warm-start the updated graph from the previous assignment.
func TestRunIncremental(t *testing.T) {
	dir := t.TempDir()
	in, g := writeTestGraph(t, dir)
	parts1 := filepath.Join(dir, "parts1.txt")
	cold := config{in: in, out: parts1, k: 4, eps: 0.05, dims: "vertices,edges", iters: 60, seed: 42}
	if err := run(cold); err != nil {
		t.Fatal(err)
	}

	// A small delta: remove one edge per 100, add a fresh one per removal.
	deltaPath := filepath.Join(dir, "delta.txt")
	df, err := os.Create(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mdbgp.WriteEdgeDelta(df, gen.PerturbDelta(g, 100, 7, 13)); err != nil {
		t.Fatal(err)
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}

	parts2 := filepath.Join(dir, "parts2.txt")
	warm := cold
	warm.out = parts2
	warm.deltaPath = deltaPath
	warm.basePath = parts1
	if err := run(warm); err != nil {
		t.Fatal(err)
	}
	prior := readParts(t, parts1, g.N(), 4)
	next := readParts(t, parts2, g.N(), 4)
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	// The warm solve must track the prior assignment, not re-derive an
	// arbitrary relabeled one.
	same := 0
	for v := range prior.Parts {
		if prior.Parts[v] == next.Parts[v] {
			same++
		}
	}
	if frac := float64(same) / float64(g.N()); frac < 0.8 {
		t.Fatalf("warm CLI solve kept only %.1f%% of the base assignment", 100*frac)
	}
}

// TestRunBinaryInput: the CLI auto-detects a wire-format input by its magic
// bytes, and a binary input solves byte-identically to its text twin. When
// the file embeds weight dims they take over from -dims (unless the delta
// path changed the vertex set).
func TestRunBinaryInput(t *testing.T) {
	dir := t.TempDir()
	textIn, g := writeTestGraph(t, dir)

	binIn := filepath.Join(dir, "graph.mdbgp")
	f, err := os.Create(binIn)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Encode(f, g, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()

	textOut := filepath.Join(dir, "parts-text.txt")
	binOut := filepath.Join(dir, "parts-bin.txt")
	base := config{out: textOut, k: 4, eps: 0.05, dims: "vertices,edges", iters: 60, seed: 42, par: 2}
	base.in = textIn
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	base.in, base.out = binIn, binOut
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(textOut)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(binOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("binary input solved differently than its text twin")
	}

	// Embedded weights matching the default dims solve identically too — the
	// weights drive the solve, not the codec.
	ws, err := mdbgp.StandardWeights(g, mdbgp.WeightVertices, mdbgp.WeightEdges)
	if err != nil {
		t.Fatal(err)
	}
	wIn := filepath.Join(dir, "weighted.mdbgp")
	wf, err := os.Create(wIn)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Encode(wf, g, ws); err != nil {
		t.Fatal(err)
	}
	wf.Close()
	wOut := filepath.Join(dir, "parts-weighted.txt")
	base.in, base.out = wIn, wOut
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	c, err := os.ReadFile(wOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Fatal("embedded default-dim weights solved differently than -dims vertices,edges")
	}
}
