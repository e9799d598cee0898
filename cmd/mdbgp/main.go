// Command mdbgp partitions an edge-list graph into k multi-dimensionally
// balanced parts using the projected-gradient-descent partitioner.
//
// Usage:
//
//	mdbgp -in graph.txt -out parts.txt -k 8 -eps 0.05 -dims vertices,edges
//
//	# any registered engine: gd (default), multilevel, fennel, blp, shp, metis
//	mdbgp -in graph.txt -out parts.txt -k 8 -engine shp
//
//	# incremental repartitioning: apply an edge delta ("+u v"/"-u v" lines)
//	# to the input graph and warm-start from a previous assignment
//	mdbgp -in graph.txt -delta delta.txt -base parts.txt -out parts2.txt -k 8
//
// The input is a whitespace-separated "u v" edge list ('#' comments allowed;
// "-" reads stdin) or a binary wire-format file (docs/WIRE_FORMAT.md),
// auto-detected by its magic bytes. Binary inputs may embed balance-dimension
// weights (see cmd/mdbgp-convert -weights); they are used unless -dims is
// passed explicitly. The output has one "vertex part" line per vertex.
// Quality metrics are printed to stderr.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mdbgp"
	"mdbgp/internal/wire"
)

// config collects the CLI's knobs; flags map onto it 1:1.
type config struct {
	in, out    string
	k          int
	eps        float64
	dims       string
	iters      int
	projection string
	seed       int64
	par        int
	engine     string
	coarsenTo  int
	refineIter int
	deltaPath  string // edge delta applied to the input graph before solving
	basePath   string // prior assignment to warm-start from
	warmIters  int
	tracePath  string // span-tree JSON destination ("" = tracing off, "-" = stderr)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.in, "in", "-", "input edge list file, or - for stdin")
	flag.StringVar(&cfg.out, "out", "-", "output assignment file, or - for stdout")
	flag.IntVar(&cfg.k, "k", 2, "number of parts")
	flag.Float64Var(&cfg.eps, "eps", 0.05, "balance tolerance per dimension")
	flag.StringVar(&cfg.dims, "dims", "vertices,edges", "comma-separated balance dimensions: vertices, edges, neighbor-degrees, pagerank")
	flag.IntVar(&cfg.iters, "iters", 100, "gradient iterations per bisection")
	flag.StringVar(&cfg.projection, "projection", "", "projection method: alternating-oneshot (default), alternating, dykstra, exact, nested")
	flag.Int64Var(&cfg.seed, "seed", 42, "random seed")
	flag.IntVar(&cfg.par, "p", 0, "worker parallelism: 0 = all cores, 1 = serial (results are seed-deterministic either way)")
	flag.StringVar(&cfg.engine, "engine", "", "solver engine: "+strings.Join(mdbgp.EngineNames(), ", ")+" (default gd)")
	flag.IntVar(&cfg.coarsenTo, "coarsento", 0, "multilevel: stop coarsening at this many vertices (0 = default)")
	flag.IntVar(&cfg.refineIter, "refineiters", 0, "multilevel: finest-level refinement iterations (0 = default)")
	flag.StringVar(&cfg.deltaPath, "delta", "", "edge delta file ('+u v'/'-u v' lines) applied to the input graph before solving")
	flag.StringVar(&cfg.basePath, "base", "", "prior assignment file ('vertex part' lines) to warm-start from")
	flag.IntVar(&cfg.warmIters, "warmiters", 0, "warm-started gradient iterations per bisection (0 = a quarter of -iters)")
	flag.StringVar(&cfg.tracePath, "trace", "", "write the solve's span tree (JSON) to this file, or - for stderr; also prints convergence telemetry")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mdbgp: %v\n", err)
		os.Exit(1)
	}
}

// writeTrace prints the solve's convergence telemetry to stderr and writes
// the full span tree as indented JSON to path ("-" = stderr).
func writeTrace(path string, v *mdbgp.SpanView) error {
	gdRuns, maxTo90 := 0, 0.0
	minLoc := -1.0
	v.Walk(func(sp *mdbgp.SpanView) {
		if sp.Name != "gd" {
			return
		}
		final, ok := sp.Float("final_locality")
		if !ok {
			return
		}
		gdRuns++
		if to90, _ := sp.Float("iters_to_90"); to90 > maxTo90 {
			maxTo90 = to90
		}
		if minLoc < 0 || final < minLoc {
			minLoc = final
		}
	})
	if gdRuns > 0 {
		fmt.Fprintf(os.Stderr, "convergence: %d gd runs, worst iters-to-90%%: %d, weakest final locality: %.4f\n",
			gdRuns, int(maxTo90), minLoc)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stderr.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// open maps "-" to stdin and anything else to the named file; the returned
// closer is a no-op for stdin.
func open(path string) (io.Reader, func() error, error) {
	if path == "-" {
		return os.Stdin, func() error { return nil }, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func run(cfg config) error {
	if _, err := mdbgp.LookupEngine(cfg.engine); err != nil {
		return err
	}
	reader, closeIn, err := open(cfg.in)
	if err != nil {
		return err
	}
	defer closeIn()
	start := time.Now()
	// Codec sniffing: the wire format opens with fixed magic bytes, which no
	// text edge list can start with, so Peek decides without consuming input.
	br := bufio.NewReaderSize(reader, 1<<20)
	var g *mdbgp.Graph
	var embedded [][]float64
	if head, _ := br.Peek(len(wire.Magic)); wire.Sniff(head) {
		g, embedded, err = wire.Decode(br)
		if err != nil {
			return fmt.Errorf("reading binary graph: %w", err)
		}
		if err := g.Validate(); err != nil {
			// The wire decoder does not enforce symmetry (docs/WIRE_FORMAT.md);
			// the solver's invariants require it, so check before solving.
			return fmt.Errorf("binary graph invalid: %w", err)
		}
	} else if g, err = mdbgp.ReadEdgeList(br); err != nil {
		return fmt.Errorf("reading graph: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loaded graph: n=%d m=%d (%.1fs)\n", g.N(), g.M(), time.Since(start).Seconds())

	if cfg.deltaPath != "" {
		dr, closeDelta, err := open(cfg.deltaPath)
		if err != nil {
			return err
		}
		d, err := mdbgp.ParseEdgeDelta(dr, 0)
		closeDelta()
		if err != nil {
			return fmt.Errorf("reading delta: %w", err)
		}
		var stats mdbgp.DeltaStats
		baseEdges := g.M()
		g, stats = mdbgp.ApplyEdgeDelta(g, d)
		fmt.Fprintf(os.Stderr, "applied delta: +%d -%d edges, %d new vertices (churn %.2f%%) -> n=%d m=%d\n",
			stats.AddedNew, stats.RemovedExisting, stats.NewVertices,
			100*stats.Churn(baseEdges), g.N(), g.M())
	}

	var warm []int32
	if cfg.basePath != "" {
		br, closeBase, err := open(cfg.basePath)
		if err != nil {
			return err
		}
		warm, err = mdbgp.ReadAssignment(br, 0)
		closeBase()
		if err != nil {
			return fmt.Errorf("reading base assignment: %w", err)
		}
		if len(warm) > g.N() {
			return fmt.Errorf("base assignment has %d entries, graph has %d vertices", len(warm), g.N())
		}
	}

	// Embedded wire weights serve as the balance dimensions unless the user
	// asked for specific dims (-dims on the command line wins), or a delta
	// changed the vertex set the weights were computed over.
	dimsExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "dims" {
			dimsExplicit = true
		}
	})
	var ws [][]float64
	var dimNames string
	switch {
	case embedded != nil && cfg.deltaPath != "":
		fmt.Fprintf(os.Stderr, "note: embedded weights ignored (-delta changed the vertex set); using -dims %s\n", cfg.dims)
		embedded = nil
	case embedded != nil && dimsExplicit:
		fmt.Fprintf(os.Stderr, "note: embedded weights ignored (-dims given explicitly)\n")
		embedded = nil
	}
	if embedded != nil {
		ws = embedded
		names := make([]string, len(embedded))
		for j := range names {
			names[j] = fmt.Sprintf("embedded:%d", j)
		}
		dimNames = strings.Join(names, ",")
	} else {
		dimList, names, err := mdbgp.ParseWeightDims(cfg.dims)
		if err != nil {
			return err
		}
		dimNames = names
		if ws, err = mdbgp.StandardWeights(g, dimList...); err != nil {
			return err
		}
	}

	start = time.Now()
	opts := mdbgp.Options{
		Engine: cfg.engine,
		K:      cfg.k, Epsilon: cfg.eps, Weights: ws, Iterations: cfg.iters,
		Projection: cfg.projection, Seed: cfg.seed, Parallelism: cfg.par,
		CoarsenTo: cfg.coarsenTo, RefineIterations: cfg.refineIter,
		WarmAssignment: warm, WarmIterations: cfg.warmIters,
	}
	var trace *mdbgp.Span
	if cfg.tracePath != "" {
		trace = mdbgp.NewTrace("solve")
		opts.Observer = trace
	}
	res, err := mdbgp.Partition(g, opts)
	if err != nil {
		return err
	}
	mode := "cold"
	if warm != nil {
		mode = "warm"
	}
	fmt.Fprintf(os.Stderr, "partitioned into k=%d in %.1fs (engine=%s, %s)\n",
		cfg.k, time.Since(start).Seconds(), opts.Canonical().Engine, mode)
	fmt.Fprintf(os.Stderr, "edge locality: %.2f%%  cut edges: %d\n", 100*res.EdgeLocality, res.CutEdges)
	for j, im := range res.Imbalances {
		fmt.Fprintf(os.Stderr, "imbalance dim %d (%s): %.3f%%\n", j, strings.Split(dimNames, ",")[j], 100*im)
	}
	if trace != nil {
		trace.End()
		if err := writeTrace(cfg.tracePath, trace.Snapshot()); err != nil {
			return err
		}
	}

	var writer *os.File
	if cfg.out == "-" {
		writer = os.Stdout
	} else {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		writer = f
	}
	bw := bufio.NewWriterSize(writer, 1<<20)
	for v, p := range res.Assignment.Parts {
		fmt.Fprintf(bw, "%d %d\n", v, p)
	}
	return bw.Flush()
}
