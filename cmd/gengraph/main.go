// Command gengraph emits synthetic graphs for use with cmd/mdbgp, cmd/mdbgpd
// and external tools, as text edge lists (default) or in the binary wire
// format (docs/WIRE_FORMAT.md).
//
// Usage:
//
//	gengraph -model social -n 100000 -avgdeg 40 -communities 50 > graph.txt
//	gengraph -model rmat -scale 18 -edgefactor 16 > rmat.txt
//	gengraph -model ba -n 200000 -edgefactor 8 > powerlaw.txt
//	gengraph -model chunglu -n 100000 -avgdeg 20 -exponent 1.8 > skewed.txt
//	gengraph -model rmat -scale 22 -format binary > rmat.mdbgp
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mdbgp"
	"mdbgp/internal/gen"
	"mdbgp/internal/wire"
)

// genParams carries every generator knob; each model reads the subset it
// documents.
type genParams struct {
	n           int
	avgDeg      float64
	communities int
	inFrac      float64
	microSize   int
	microFrac   float64
	exponent    float64
	scale       int
	edgeFactor  int
	rows, cols  int
	torus       bool
	seed        int64
	format      string
}

// parseFlags maps the command line onto a model name and its parameters.
func parseFlags(args []string) (string, genParams, error) {
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	var (
		model       = fs.String("model", "social", "graph model: social, rmat, ba (powerlaw), chunglu, er, grid")
		n           = fs.Int("n", 100000, "vertices (social, ba, chunglu, er)")
		avgDeg      = fs.Float64("avgdeg", 30, "average degree (social, chunglu, er)")
		communities = fs.Int("communities", 50, "planted communities (social)")
		inFrac      = fs.Float64("infrac", 0.5, "intra-community edge fraction (social)")
		microSize   = fs.Int("microsize", 20, "micro-community size, 0 disables (social)")
		microFrac   = fs.Float64("microfrac", 0.25, "micro-community edge fraction (social)")
		exponent    = fs.Float64("exponent", 2.5, "degree-skew Pareto exponent, 0 disables (social, chunglu)")
		scale       = fs.Int("scale", 16, "log2 vertices (rmat)")
		edgeFactor  = fs.Int("edgefactor", 16, "edges per vertex (rmat, ba)")
		rows        = fs.Int("rows", 512, "grid rows")
		cols        = fs.Int("cols", 512, "grid cols")
		torus       = fs.Bool("torus", false, "wrap the grid into a torus")
		seed        = fs.Int64("seed", 42, "random seed")
		format      = fs.String("format", "text", "output codec: text (edge list) or binary (wire format, docs/WIRE_FORMAT.md)")
	)
	if err := fs.Parse(args); err != nil {
		return "", genParams{}, err
	}
	if fs.NArg() > 0 {
		return "", genParams{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *format != "text" && *format != "binary" {
		return "", genParams{}, fmt.Errorf("bad -format %q (want text or binary)", *format)
	}
	return *model, genParams{
		n: *n, avgDeg: *avgDeg, communities: *communities, inFrac: *inFrac,
		microSize: *microSize, microFrac: *microFrac, exponent: *exponent,
		scale: *scale, edgeFactor: *edgeFactor, rows: *rows, cols: *cols,
		torus: *torus, seed: *seed, format: *format,
	}, nil
}

// generate materializes the requested model.
func generate(model string, p genParams) (*mdbgp.Graph, error) {
	switch model {
	case "social":
		g, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{
			N: p.n, Communities: p.communities, AvgDegree: p.avgDeg,
			InFraction: p.inFrac, MicroSize: p.microSize, MicroFraction: p.microFrac,
			DegreeExponent: p.exponent, Seed: p.seed,
		})
		return g, nil
	case "rmat":
		return mdbgp.GenerateRMAT(p.scale, p.edgeFactor, 0.57, 0.19, 0.19, p.seed), nil
	case "ba", "powerlaw":
		return gen.BarabasiAlbert(p.n, p.edgeFactor, p.seed), nil
	case "chunglu":
		return gen.ChungLu(p.n, p.avgDeg, p.exponent, p.seed), nil
	case "er":
		return gen.ErdosRenyi(p.n, int(float64(p.n)*p.avgDeg/2), p.seed), nil
	case "grid":
		return gen.Grid(p.rows, p.cols, p.torus), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want social, rmat, ba, chunglu, er, grid)", model)
	}
}

// run generates the graph and writes it to out in the selected codec, logging
// a one-line summary to logw. Both codecs carry the same canonical CSR, so
// the server hashes either output to the same content address.
func run(model string, p genParams, out, logw io.Writer) error {
	g, err := generate(model, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "generated %s graph: n=%d m=%d format=%s\n", model, g.N(), g.M(), p.format)
	if p.format == "binary" {
		return wire.Encode(out, g, nil)
	}
	return mdbgp.WriteEdgeList(out, g)
}

func main() {
	model, p, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // usage already printed
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(2)
	}
	if err := run(model, p, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(1)
	}
}
