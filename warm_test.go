package mdbgp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mdbgp/internal/gen"
)

// warmScenario builds an incremental-repartitioning scenario: a base graph,
// its cold solution, and a target graph one small edge delta away.
func warmScenario(t testing.TB, k int) (base, target *Graph, baseRes *Result, opts Options) {
	t.Helper()
	base, _ = GenerateSocialGraph(SocialGraphConfig{
		N: 1200, Communities: 6, AvgDegree: 10, InFraction: 0.85, Seed: 99,
	})
	opts = Options{K: k, Seed: 42, Iterations: 60}
	var err error
	baseRes, err = Partition(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	// ~1% churn: drop every 100th edge, add a fresh edge per drop.
	target, _ = ApplyEdgeDelta(base, gen.PerturbDelta(base, 100, 7, 13))
	return base, target, baseRes, opts
}

// TestWarmDeterminismAcrossWorkers is the incremental determinism contract:
// the same seed and the same base assignment produce byte-identical warm
// partitions at any worker count, for both the direct and multilevel paths.
func TestWarmDeterminismAcrossWorkers(t *testing.T) {
	_, target, baseRes, opts := warmScenario(t, 4)
	for _, engine := range []string{"gd", "multilevel"} {
		o := opts
		o.Engine = engine
		var golden []int32
		for _, p := range []int{1, 2, 8} {
			o.Parallelism = p
			res, err := PartitionWarm(target, baseRes.Assignment.Parts, o)
			if err != nil {
				t.Fatal(err)
			}
			if golden == nil {
				golden = res.Assignment.Parts
				continue
			}
			for v := range golden {
				if golden[v] != res.Assignment.Parts[v] {
					t.Fatalf("engine=%s workers=%d: warm partition diverged at vertex %d", engine, p, v)
				}
			}
		}
	}
}

// TestWarmSolveQualityAndBalance: a warm solve over a small delta must stay
// ε-balanced and retain the base's locality (the whole point of reusing it).
func TestWarmSolveQualityAndBalance(t *testing.T) {
	_, target, baseRes, opts := warmScenario(t, 4)
	coldRes, err := Partition(target, opts)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := PartitionWarm(target, baseRes.Assignment.Parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := warmRes.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	ws, err := StandardWeights(target, WeightVertices, WeightEdges)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBalanced(warmRes.Assignment, ws, 0.05+0.03) {
		t.Fatalf("warm solve imbalance %.4f exceeds ε+slack", MaxImbalance(warmRes.Assignment, ws))
	}
	if warmRes.EdgeLocality < coldRes.EdgeLocality-0.02 {
		t.Fatalf("warm locality %.4f regressed past cold locality %.4f",
			warmRes.EdgeLocality, coldRes.EdgeLocality)
	}
	// The warm solve must actually track the base solution: most vertices
	// keep their prior part (up to a global part relabeling, which recursive
	// bisection does not do when warm-started from those very parts).
	same := 0
	for v, p := range baseRes.Assignment.Parts {
		if v < len(warmRes.Assignment.Parts) && warmRes.Assignment.Parts[v] == p {
			same++
		}
	}
	if frac := float64(same) / float64(len(baseRes.Assignment.Parts)); frac < 0.9 {
		t.Fatalf("warm solve kept only %.1f%% of the base assignment; the warm start was ignored", 100*frac)
	}
}

// TestWarmAssignmentValidation: length and shape errors fail fast.
func TestWarmAssignmentValidation(t *testing.T) {
	g, _ := testGraph()
	warm := make([]int32, g.N()+1)
	if _, err := PartitionWarm(g, warm, Options{K: 2}); err == nil {
		t.Fatal("oversized warm assignment should error")
	}
	// Shorter is allowed: new vertices are padded neutral.
	short := make([]int32, g.N()/2)
	if _, err := PartitionWarm(g, short, Options{K: 2, Iterations: 20}); err != nil {
		t.Fatal(err)
	}
	// Negative part values are "no opinion", not an error.
	junk := make([]int32, g.N())
	for i := range junk {
		junk[i] = -1
	}
	if _, err := PartitionWarm(g, junk, Options{K: 2, Iterations: 20}); err != nil {
		t.Fatal(err)
	}
	// Part ids >= K mean the base was solved with a different K; silently
	// treating them as neutral would hand most of the graph a no-opinion
	// warm start at the reduced warm budget — fail fast instead.
	mismatched := make([]int32, g.N())
	for i := range mismatched {
		mismatched[i] = int32(i % 4)
	}
	if _, err := PartitionWarm(g, mismatched, Options{K: 2, Iterations: 20}); err == nil {
		t.Fatal("warm assignment from a larger K should error")
	}
	// Part ids below -1 are corrupt, not "no opinion": only -1 carries that
	// meaning, and anything further negative would silently flow into the
	// damped ±1 encoding.
	corrupt := make([]int32, g.N())
	corrupt[3] = -5
	if _, err := PartitionWarm(g, corrupt, Options{K: 2, Iterations: 20}); err == nil {
		t.Fatal("warm assignment with part id < -1 should error")
	}
}

// TestValidateWarmAssignmentTyped: validation failures carry the typed
// *WarmAssignmentError so front ends can classify them as client input
// errors (HTTP 400) rather than solver faults.
func TestValidateWarmAssignmentTyped(t *testing.T) {
	var wae *WarmAssignmentError
	if err := ValidateWarmAssignment([]int32{0, 1, 7}, 10, 4); !errors.As(err, &wae) {
		t.Fatalf("out-of-range part: got %T (%v), want *WarmAssignmentError", err, err)
	} else if wae.Vertex != 2 || wae.Part != 7 || wae.K != 4 {
		t.Fatalf("error fields %+v do not locate the violation", wae)
	}
	if err := ValidateWarmAssignment([]int32{-2}, 10, 4); !errors.As(err, &wae) {
		t.Fatalf("sub--1 part: got %T, want *WarmAssignmentError", err)
	}
	if err := ValidateWarmAssignment(make([]int32, 11), 10, 4); !errors.As(err, &wae) {
		t.Fatalf("oversized slice: got %T, want *WarmAssignmentError", err)
	} else if wae.Vertex != -1 || wae.Len != 11 || wae.N != 10 {
		t.Fatalf("length-error fields %+v", wae)
	}
	if err := ValidateWarmAssignment([]int32{-1, 0, 3}, 10, 4); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	// The library entry points surface the same typed error.
	g, _ := testGraph()
	bad := make([]int32, g.N())
	bad[0] = 99
	if _, err := PartitionWarm(g, bad, Options{K: 2, Iterations: 20}); !errors.As(err, &wae) {
		t.Fatalf("PartitionWarm: got %T (%v), want *WarmAssignmentError", err, err)
	}
}

func TestCanonicalWarmKnobs(t *testing.T) {
	c := Options{WarmAssignment: []int32{0, 1}}.Canonical()
	if c.WarmIterations != 25 {
		t.Fatalf("warm iterations default = %d, want 25 (a quarter of 100)", c.WarmIterations)
	}
	// WarmIterations without a warm assignment is inert and must be zeroed
	// so near-duplicate requests share a fingerprint.
	c = Options{WarmIterations: 30}.Canonical()
	if c.WarmIterations != 0 {
		t.Fatalf("inert WarmIterations survived canonicalization: %+v", c)
	}
}

func TestFingerprintWarmAssignment(t *testing.T) {
	cold := Options{}.Fingerprint()
	warmA := Options{WarmAssignment: []int32{0, 1, 0}}.Fingerprint()
	warmB := Options{WarmAssignment: []int32{0, 1, 1}}.Fingerprint()
	if warmA == cold {
		t.Fatal("warm-started options must not share the cold fingerprint (different trajectory, different result)")
	}
	if warmA == warmB {
		t.Fatal("different warm assignments must fingerprint differently")
	}
	if warmA != (Options{WarmAssignment: []int32{0, 1, 0}}).Fingerprint() {
		t.Fatal("equal warm assignments must fingerprint equally")
	}
}

func TestReadAssignment(t *testing.T) {
	parts, err := ReadAssignment(strings.NewReader("# header\n0 1\n2 0\n1 3\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 3, 0}
	if len(parts) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(parts), len(want))
	}
	for i, p := range want {
		if parts[i] != p {
			t.Fatalf("parts[%d] = %d, want %d", i, parts[i], p)
		}
	}
	// Gaps are -1 (no prior opinion).
	parts, err = ReadAssignment(strings.NewReader("0 1\n3 2\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 || parts[1] != -1 || parts[2] != -1 {
		t.Fatalf("gap handling: %v", parts)
	}
	for _, bad := range []string{"0\n", "0 x\n", "-1 0\n", "0 -2\n", "99 0\n"} {
		if _, err := ReadAssignment(strings.NewReader(bad), 50); err == nil {
			t.Errorf("ReadAssignment(%q) succeeded, want error", bad)
		}
	}
}

// TestWarmRoundTripThroughEdgeList: the exported delta + assignment IO and
// the warm path compose — the CLI flow (-delta, -base) in library form.
func TestWarmRoundTripThroughEdgeList(t *testing.T) {
	_, target, baseRes, opts := warmScenario(t, 2)
	var buf bytes.Buffer
	for v, p := range baseRes.Assignment.Parts {
		fmt.Fprintf(&buf, "%d %d\n", v, p)
	}
	warm, err := ReadAssignment(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PartitionWarm(target, warm, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := PartitionWarm(target, baseRes.Assignment.Parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Assignment.Parts {
		if res.Assignment.Parts[v] != direct.Assignment.Parts[v] {
			t.Fatalf("assignment IO round trip changed the warm result at vertex %d", v)
		}
	}
}
