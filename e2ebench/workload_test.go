package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// opDigest renders everything a planned request sends, plus the graphs it
// names, so two plans can be compared request by request.
func opDigest(o *op) string {
	base := ""
	if o.base != nil {
		base = o.base.graphHash()
	}
	return fmt.Sprintf("%s %s binary=%v k=%d dims=%v body=%x base=%.16s ver=%.16s full=%x",
		o.kind, o.query, o.binary, o.k, o.dims, sha256.Sum256(o.body), base, o.ver.graphHash(), sha256.Sum256(o.ver.fullBody()))
}

func planDigests(t *testing.T, name string, seed int64, perClient int) []string {
	t.Helper()
	w, err := buildWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for c, p := range w.newPlans() {
		for i := 0; i < perClient; i++ {
			out = append(out, fmt.Sprintf("c%d %s", c, opDigest(p.next())))
		}
	}
	// A second set of plans over the same inputs restarts the sequence.
	for c, p := range w.newPlans() {
		for i := 0; i < perClient; i++ {
			if got, want := fmt.Sprintf("c%d %s", c, opDigest(p.next())), out[c*perClient+i]; got != want {
				t.Fatalf("%s: replanned request %d of client %d differs:\n got %s\nwant %s", name, i, c, got, want)
			}
		}
	}
	return out
}

func TestWorkloadsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, tc := range []struct {
		name      string
		perClient int
	}{{wlGDCold, 4}, {wlMLRepartition, 4}, {wlServeMix, 300}} {
		a := planDigests(t, tc.name, 11, tc.perClient)
		b := planDigests(t, tc.name, 11, tc.perClient)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between two generations from seed 11:\n%s\n%s", tc.name, i, a[i], b[i])
			}
		}
		c := planDigests(t, tc.name, 12, tc.perClient)
		if a[0] == c[0] {
			t.Errorf("%s: seeds 11 and 12 generate the same first request", tc.name)
		}
	}
}

func TestServeMixPlanShape(t *testing.T) {
	w, err := buildWorkload(wlServeMix, 5)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, p := range w.newPlans() {
		for i := 0; i < 1000; i++ {
			o := p.next()
			kinds[o.kind]++
			if o.kind == "delta" && o.base.k == 0 {
				t.Fatalf("delta planned against an unsolved version")
			}
			if n := o.ver.g.N(); o.ver.g.Degree(n-1) == 0 {
				t.Fatalf("version with an isolated highest vertex: a text re-upload would drop it")
			}
		}
	}
	total := float64(kinds["repeat"] + kinds["cold"] + kinds["delta"])
	for kind, want := range map[string]float64{"repeat": repeatShare, "cold": coldShare, "delta": 1 - repeatShare - coldShare} {
		if got := float64(kinds[kind]) / total; got < want-0.05 || got > want+0.05 {
			t.Errorf("%s share %.3f, want %.2f±0.05", kind, got, want)
		}
	}
}
