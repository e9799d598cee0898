package mdbgp

import (
	"reflect"
	"strings"
	"testing"
)

func TestCanonicalFillsDefaults(t *testing.T) {
	c := Options{}.Canonical()
	want := Options{Engine: "gd", K: 2, Epsilon: 0.05, Iterations: 100, StepLength: 2, Projection: "alternating-oneshot"}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("Canonical() = %+v, want %+v", c, want)
	}
	// Canonical is idempotent.
	if !reflect.DeepEqual(c.Canonical(), c) {
		t.Fatalf("Canonical not idempotent: %+v", c.Canonical())
	}
}

func TestCanonicalMultilevelKnobs(t *testing.T) {
	c := Options{Engine: "multilevel"}.Canonical()
	if c.CoarsenTo != 8000 || c.ClusterSize != 32 || c.RefineIterations != 16 {
		t.Fatalf("multilevel defaults not filled: %+v", c)
	}
	// Multilevel knobs on a non-multilevel request are inert and must be
	// zeroed so near-duplicate requests share a fingerprint.
	c = Options{CoarsenTo: 500, ClusterSize: 8, RefineIterations: 3}.Canonical()
	if c.CoarsenTo != 0 || c.ClusterSize != 0 || c.RefineIterations != 0 {
		t.Fatalf("inert multilevel knobs survived canonicalization: %+v", c)
	}
}

func TestFingerprintStability(t *testing.T) {
	fp := Options{}.Fingerprint()
	if len(fp) != 64 || strings.Trim(fp, "0123456789abcdef") != "" {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
	}

	// Explicit defaults fingerprint the same as the zero value.
	explicit := Options{K: 2, Epsilon: 0.05, Iterations: 100, StepLength: 2, Projection: "alternating-oneshot"}
	if explicit.Fingerprint() != fp {
		t.Fatal("explicit defaults should fingerprint identically to zero options")
	}

	// Parallelism never affects the fingerprint (results are bit-identical
	// at any worker count, so the cache may serve across worker counts).
	if (Options{Parallelism: 8}).Fingerprint() != fp {
		t.Fatal("Parallelism leaked into the fingerprint")
	}

	// Every solver-relevant field must perturb the fingerprint.
	perturbed := []Options{
		{K: 4},
		{Epsilon: 0.1},
		{Iterations: 50},
		{StepLength: 1},
		{Projection: "dykstra"},
		{Seed: 7},
		{DisableAdaptiveStep: true},
		{DisableVertexFixing: true},
		{Engine: "multilevel"},
		{Engine: "multilevel", CoarsenTo: 100},
		{Engine: "multilevel", ClusterSize: 4},
		{Engine: "multilevel", RefineIterations: 2},
		{Weights: [][]float64{{1, 2, 3}}},
	}
	seen := map[string]int{fp: -1}
	for i, o := range perturbed {
		got := o.Fingerprint()
		if j, dup := seen[got]; dup {
			t.Errorf("options %d and %d collide on fingerprint %s", i, j, got)
		}
		seen[got] = i
	}
}

// TestFingerprintEngineCollisionAudit is the cache-safety audit of the
// engine registry: for one graph-shaped option set, every registered engine
// — cold and warm (for warm-capable engines) — must yield a distinct
// fingerprint. A collision here would let
// the content-addressed result cache serve one engine's assignment for
// another.
func TestFingerprintEngineCollisionAudit(t *testing.T) {
	warm := []int32{0, 1, 0, 1}
	seen := map[string]string{}
	record := func(label, fp string) {
		t.Helper()
		if prior, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision: %q and %q both map to %s", prior, label, fp)
		}
		seen[fp] = label
	}
	builtins := 0
	for _, info := range Engines() {
		if strings.HasPrefix(info.Name, "test-") {
			continue // engines registered by other tests; audited by their own suite
		}
		builtins++
		record("cold "+info.Name, Options{Engine: info.Name, K: 4, Seed: 42}.Fingerprint())
		if info.WarmStart {
			record("warm "+info.Name, Options{Engine: info.Name, K: 4, Seed: 42, WarmAssignment: warm}.Fingerprint())
		}
	}
	if len(seen) != builtins+2 { // 6 cold + warm gd + warm multilevel
		t.Fatalf("audit covered %d fingerprints, want %d", len(seen), builtins+2)
	}
}

func TestFingerprintWeightsContent(t *testing.T) {
	a := Options{Weights: [][]float64{{1, 2}, {3, 4}}}
	b := Options{Weights: [][]float64{{1, 2, 3, 4}}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("weight vector boundaries must be part of the fingerprint")
	}
	c := Options{Weights: [][]float64{{1, 2}, {3, 4}}}
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatal("equal weights must fingerprint equally")
	}
}

func TestCanonicalPartitionEquivalence(t *testing.T) {
	g, _ := testGraph()
	o := Options{Seed: 5, Iterations: 40}
	r1, err := Partition(g, o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Partition(g, o.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.Assignment.Parts {
		if r1.Assignment.Parts[v] != r2.Assignment.Parts[v] {
			t.Fatalf("canonicalized options changed the partition at vertex %d", v)
		}
	}
}
