package main

import (
	"testing"

	"mdbgp"
)

func TestCoveredUnionsOverlappingIntervals(t *testing.T) {
	cases := []struct {
		name      string
		intervals [][2]int64
		want      int64
	}{
		{"disjoint", [][2]int64{{10, 20}, {30, 40}}, 20},
		{"overlapping", [][2]int64{{10, 40}, {30, 60}, {70, 80}}, 60},
		{"nested", [][2]int64{{10, 50}, {20, 30}}, 40},
		{"unsorted and touching", [][2]int64{{50, 60}, {10, 30}, {30, 50}}, 50},
		{"clipped to the parent", [][2]int64{{-20, 10}, {90, 150}}, 20},
		{"outside the parent", [][2]int64{{100, 120}, {-5, 0}}, 0},
		{"none", nil, 0},
	}
	for _, tc := range cases {
		if got := covered(0, 100, tc.intervals); got != tc.want {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Two concurrent bisections under one parent: subtracting their summed
// durations would make the parent's self time negative.
func TestSelfTimeWithConcurrentChildren(t *testing.T) {
	parent := &mdbgp.SpanView{Name: "bisect", StartUS: 0, DurUS: 1000, Children: []*mdbgp.SpanView{
		{Name: "gd", StartUS: 0, DurUS: 300},
		{Name: "bisect", StartUS: 350, DurUS: 600},
		{Name: "bisect", StartUS: 360, DurUS: 620},
	}}
	if got := selfUS(parent); got != 1000-300-630 {
		t.Errorf("self = %d µs, want %d", got, 1000-300-630)
	}
	root := &mdbgp.SpanView{Name: "request", StartUS: 0, DurUS: 2000, Children: []*mdbgp.SpanView{
		{Name: "ingest", StartUS: 0, DurUS: 100},
		{Name: "cache-lookup", StartUS: 100, DurUS: 5},
		{Name: "queue-wait", StartUS: 105, DurUS: 20},
		{Name: "solve", StartUS: 125, DurUS: 1800, Children: []*mdbgp.SpanView{
			{Name: "prep", StartUS: 125, DurUS: 50},
			parent,
		}},
	}}
	parent.StartUS = 200
	for _, c := range parent.Children {
		c.StartUS += 200
	}
	tot := totalsOf(root)
	if tot.unattributedUS != 2000-1925 {
		t.Errorf("unattributed = %d µs, want %d", tot.unattributedUS, 2000-1925)
	}
	if tot.solveSelfUS != 1800-50-1000 {
		t.Errorf("solve self = %d µs, want %d", tot.solveSelfUS, 1800-50-1000)
	}
	// The two inner bisections have no children: all their time is self.
	if want := int64(70 + 600 + 620); tot.bisectSelfUS != want {
		t.Errorf("bisect self = %d µs, want %d", tot.bisectSelfUS, want)
	}
	if !tot.hasSolve || !tot.hasQueue || !tot.hasPrep || tot.gdRuns != 1 {
		t.Errorf("stage flags or gd count wrong: %+v", tot)
	}
}
