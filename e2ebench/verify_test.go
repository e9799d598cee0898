package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mdbgp"
	"mdbgp/internal/gen"
)

// solved returns a real k=4 solve of a small graph as the daemon would
// report it: "vertex part" lines and the job's quality figures.
func solved(t *testing.T) *outcome {
	t.Helper()
	g0, _ := gen.SBM(gen.SBMConfig{N: 600, Communities: 4, AvgDegree: 8, InFraction: 0.8, DegreeExponent: 2, Seed: 7})
	v, err := textVersion(g0)
	if err != nil {
		t.Fatal(err)
	}
	dims := []mdbgp.Weight{mdbgp.WeightVertices, mdbgp.WeightEdges}
	ws, err := mdbgp.StandardWeights(v.g, dims...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mdbgp.Partition(v.g, mdbgp.Options{K: 4, Seed: 3, Weights: ws})
	if err != nil {
		t.Fatal(err)
	}
	return &outcome{
		op:         &op{kind: "cold", ver: v, k: 4, dims: dims},
		assignment: render(res.Assignment.Parts),
		job: jobView{ID: "j1", Key: "key-1", Cache: "miss", GraphHash: v.graphHash(), Result: &jobResult{
			K: 4, EdgeLocality: res.EdgeLocality, CutEdges: res.CutEdges, Imbalances: res.Imbalances,
		}},
	}
}

func render(parts []int32) []byte {
	var b bytes.Buffer
	for v, p := range parts {
		fmt.Fprintf(&b, "%d %d\n", v, p)
	}
	return b.Bytes()
}

// rescored is o with a different assignment whose reported figures are
// recomputed, so only the identity check can object to it.
func rescored(t *testing.T, o *outcome, parts []int32) *outcome {
	t.Helper()
	g := o.op.ver.g
	a := &mdbgp.Assignment{K: o.op.k, Parts: parts}
	ws, err := mdbgp.StandardWeights(g, o.op.dims...)
	if err != nil {
		t.Fatal(err)
	}
	cp := *o
	cp.assignment = render(parts)
	res := &jobResult{K: o.op.k, EdgeLocality: mdbgp.EdgeLocality(g, a), CutEdges: cutEdges(g, parts)}
	for _, w := range ws {
		res.Imbalances = append(res.Imbalances, mdbgp.Imbalance(a, w))
	}
	cp.job.Result = res
	return &cp
}

func TestCheckerAcceptsCorrectAnswers(t *testing.T) {
	o := solved(t)
	ck := newChecker()
	balanced, err := ck.check(o)
	if err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	a, _ := parseAssignment(o.assignment, o.op.ver.g.N(), 4)
	ws, _ := mdbgp.StandardWeights(o.op.ver.g, o.op.dims...)
	if want := mdbgp.IsBalanced(a, ws, balanceEps); balanced != want {
		t.Errorf("balanced = %v, want %v", balanced, want)
	}
	hit := *o
	hit.job.ID, hit.job.Cache = "j2", "hit"
	if _, err := ck.check(&hit); err != nil {
		t.Errorf("byte-identical cache hit rejected: %v", err)
	}
}

func TestCheckerFlagsWrongAnswers(t *testing.T) {
	lines := func(o *outcome) []string {
		return strings.SplitAfter(strings.TrimSuffix(string(o.assignment), "\n"), "\n")
	}
	cases := []struct {
		name   string
		mutate func(o *outcome)
		want   string
	}{
		{"part out of range", func(o *outcome) {
			l := lines(o)
			l[5] = "5 4\n"
			o.assignment = []byte(strings.Join(l, "") + "\n")
		}, "outside [0, 4)"},
		{"missing vertex", func(o *outcome) {
			l := lines(o)
			o.assignment = []byte(strings.Join(l[:len(l)-1], ""))
		}, "assignment has"},
		{"vertices out of order", func(o *outcome) {
			l := lines(o)
			l[3], l[4] = l[4], l[3]
			o.assignment = []byte(strings.Join(l, "") + "\n")
		}, "names vertex"},
		{"garbage line", func(o *outcome) {
			o.assignment = append([]byte("0 x\n"), o.assignment...)
		}, "not \"vertex part\""},
		{"wrong locality", func(o *outcome) { o.job.Result.EdgeLocality += 0.01 }, "locality"},
		{"wrong cut edges", func(o *outcome) { o.job.Result.CutEdges++ }, "cut edges"},
		{"wrong imbalance", func(o *outcome) { o.job.Result.Imbalances[1] += 1e-6 }, "imbalance"},
		{"wrong k", func(o *outcome) { o.job.Result.K = 8 }, "k = 8"},
		{"another graph", func(o *outcome) { o.job.GraphHash = strings.Repeat("0", 64) }, "solved graph"},
	}
	for _, tc := range cases {
		o := solved(t)
		res := *o.job.Result
		res.Imbalances = append([]float64(nil), res.Imbalances...)
		o.job.Result = &res
		tc.mutate(o)
		if _, err := newChecker().check(o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckerFlagsCacheHitDifferingFromOriginal(t *testing.T) {
	o := solved(t)
	ck := newChecker()
	if _, err := ck.check(o); err != nil {
		t.Fatal(err)
	}
	a, err := parseAssignment(o.assignment, o.op.ver.g.N(), 4)
	if err != nil {
		t.Fatal(err)
	}
	parts := append([]int32(nil), a.Parts...)
	for v := range parts {
		if parts[v] != parts[0] {
			parts[0], parts[v] = parts[v], parts[0]
			break
		}
	}
	hit := rescored(t, o, parts)
	hit.job.ID, hit.job.Cache = "j2", "hit"
	if _, err := newChecker().check(hit); err != nil {
		t.Fatalf("the altered answer is self-consistent and must pass alone: %v", err)
	}
	if _, err := ck.check(hit); err == nil || !strings.Contains(err.Error(), "differs from the earlier answer") {
		t.Errorf("cache hit differing from its original: err = %v", err)
	}
}
