package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"

	"mdbgp"
	"mdbgp/internal/wire"
)

func TestParseFlagsModelSelection(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "social"}, // default
		{[]string{"-model", "rmat"}, "rmat"},
	}
	for _, tc := range cases {
		m, _, err := parseFlags(tc.args)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if m != tc.want {
			t.Errorf("%v: model %q, want %q", tc.args, m, tc.want)
		}
	}
}

func TestParseFlagsParams(t *testing.T) {
	_, p, err := parseFlags([]string{"-n", "500", "-avgdeg", "6.5", "-seed", "9", "-torus", "-rows", "3", "-cols", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if p.n != 500 || p.avgDeg != 6.5 || p.seed != 9 || !p.torus || p.rows != 3 || p.cols != 4 {
		t.Fatalf("params %+v", p)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	if _, _, err := parseFlags([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp (main exits 0 on it)", err)
	}
	if _, _, err := parseFlags([]string{"positional"}); err == nil {
		t.Fatal("positional argument accepted")
	}
}

func TestGenerateAllModels(t *testing.T) {
	base := genParams{
		n: 200, avgDeg: 6, communities: 4, inFrac: 0.6, microSize: 10,
		microFrac: 0.2, exponent: 2.5, scale: 7, edgeFactor: 4,
		rows: 8, cols: 9, seed: 3,
	}
	for _, model := range []string{"social", "rmat", "ba", "powerlaw", "chunglu", "er", "grid"} {
		g, err := generate(model, base)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if g.N() == 0 || g.M() == 0 {
			t.Fatalf("%s: empty graph (n=%d m=%d)", model, g.N(), g.M())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", model, err)
		}
	}
	if _, err := generate("mystery", base); err == nil {
		t.Fatal("unknown model accepted")
	}
	// "ba" and "powerlaw" are the same model.
	a, _ := generate("ba", base)
	b, _ := generate("powerlaw", base)
	if a.Hash() != b.Hash() {
		t.Fatal("ba and powerlaw aliases diverged")
	}
}

// TestRunSmoke runs the whole pipeline on a tiny graph: flags → generator →
// edge-list output that mdbgp.ReadEdgeList parses back to the same graph.
func TestRunSmoke(t *testing.T) {
	model, p, err := parseFlags([]string{"-model", "social", "-n", "300", "-avgdeg", "8", "-communities", "3", "-seed", "11"})
	if err != nil {
		t.Fatal(err)
	}
	var out, logs bytes.Buffer
	if err := run(model, p, &out, &logs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "generated social graph") {
		t.Fatalf("missing summary line, got %q", logs.String())
	}
	g, err := mdbgp.ReadEdgeList(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("output does not round-trip: %v", err)
	}
	want, _ := generate(model, p)
	if g.Hash() != want.Hash() {
		t.Fatal("written edge list does not match the generated graph")
	}
	// Determinism: the same flags produce byte-identical output.
	var out2 bytes.Buffer
	if err := run(model, p, &out2, &logs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Fatal("gengraph output is not deterministic for a fixed seed")
	}
}

// TestRunBinaryFormat: -format binary emits the wire format carrying the
// exact same canonical graph (same content hash) as the text output.
func TestRunBinaryFormat(t *testing.T) {
	model, p, err := parseFlags([]string{"-model", "social", "-n", "300", "-avgdeg", "8", "-communities", "3", "-seed", "11", "-format", "binary"})
	if err != nil {
		t.Fatal(err)
	}
	var out, logs bytes.Buffer
	if err := run(model, p, &out, &logs); err != nil {
		t.Fatal(err)
	}
	if !wire.Sniff(out.Bytes()) {
		t.Fatal("binary output does not start with the wire magic")
	}
	g, weights, err := wire.Decode(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("binary output does not decode: %v", err)
	}
	if weights != nil {
		t.Fatal("gengraph must not embed weights")
	}
	want, _ := generate(model, p)
	if g.Hash() != want.Hash() {
		t.Fatal("binary output decodes to a different graph than the generator produced")
	}
	if _, _, err := parseFlags([]string{"-format", "csv"}); err == nil {
		t.Fatal("bad -format accepted")
	}
}
