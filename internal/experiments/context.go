package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mdbgp/internal/baselines"
	"mdbgp/internal/core"
	"mdbgp/internal/graph"
	"mdbgp/internal/multilevel"
	"mdbgp/internal/partition"
	"mdbgp/internal/weights"
)

// Context carries the shared state of an experiment run: dataset cache,
// partition cache (the Figure 1 / Figure 7 / Table 2 experiments reuse the
// same GD partitions), scale factor, and a progress log sink.
type Context struct {
	// ScaleDiv divides dataset sizes: 1 = full paper-analog scale, 8 =
	// quick mode for benches and smoke tests.
	ScaleDiv int
	// Seed drives every randomized algorithm in the run.
	Seed int64
	// Log receives progress lines (nil discards them).
	Log io.Writer
	// Parallelism is the GD worker count (core.Options.Workers): 0 uses
	// GOMAXPROCS, 1 forces the serial path. Partitions are seed-
	// deterministic regardless, so cached results stay comparable.
	Parallelism int
	// Engine, when set to a registered engine name other than "gd" or
	// "multilevel", routes the partitions GDPartition would compute through
	// that engine instead — the tables then report the named engine in the
	// role the paper gives GD, for cross-engine comparisons. EngineSolve
	// must be wired alongside it.
	Engine string
	// EngineSolve performs the dispatch for Engine. It is injected by
	// cmd/experiments (wired to the public mdbgp engine registry): this
	// package cannot import the root package, whose benchmarks import it.
	EngineSolve func(g *graph.Graph, ws [][]float64, k int) (*partition.Assignment, error)

	graphs map[string]*graph.Graph
	parts  map[string]*partition.Assignment
	wcache map[string][][]float64
}

// NewContext creates a context at the given scale divisor.
func NewContext(scaleDiv int, seed int64, log io.Writer) *Context {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	return &Context{
		ScaleDiv: scaleDiv,
		Seed:     seed,
		Log:      log,
		graphs:   map[string]*graph.Graph{},
		parts:    map[string]*partition.Assignment{},
		wcache:   map[string][][]float64{},
	}
}

// Logf writes a progress line.
func (c *Context) Logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Graph returns the named dataset, generating and caching it on first use.
func (c *Context) Graph(name string) (*graph.Graph, error) {
	if g, ok := c.graphs[name]; ok {
		return g, nil
	}
	spec, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	g := spec.Generate(c.ScaleDiv)
	c.Logf("dataset %-18s n=%-8d m=%-9d (%.1fs)", name, g.N(), g.M(), time.Since(start).Seconds())
	c.graphs[name] = g
	return g, nil
}

// Weights returns the first d standard balance dimensions of the dataset,
// cached.
func (c *Context) Weights(name string, d int) ([][]float64, error) {
	key := fmt.Sprintf("%s:d=%d", name, d)
	if ws, ok := c.wcache[key]; ok {
		return ws, nil
	}
	g, err := c.Graph(name)
	if err != nil {
		return nil, err
	}
	ws, err := weights.Standard(g, d)
	if err != nil {
		return nil, err
	}
	c.wcache[key] = ws
	return ws, nil
}

// GD partitioning modes used throughout the experiments.
const (
	ModeVertex     = "vertex"      // 1-D balance on vertex count
	ModeEdge       = "edge"        // 1-D balance on edge (degree) count
	ModeVertexEdge = "vertex-edge" // 2-D balance on both
)

func modeWeights(g *graph.Graph, mode string) ([][]float64, error) {
	switch mode {
	case ModeVertex:
		return [][]float64{weights.Unit(g)}, nil
	case ModeEdge:
		return [][]float64{weights.Degree(g)}, nil
	case ModeVertexEdge:
		return [][]float64{weights.Unit(g), weights.Degree(g)}, nil
	}
	return nil, fmt.Errorf("experiments: unknown GD mode %q", mode)
}

// GDOptions returns the paper-default GD options with the context's seed
// and worker parallelism applied; every experiment that runs GD directly
// must start from this so -p is honored uniformly.
func (c *Context) GDOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Seed = c.Seed
	opt.Workers = c.Parallelism
	return opt
}

// GDPartition runs (and caches) the context's solver with the given balance
// mode and k: direct GD by default, or any registered engine when c.Engine
// names one ("multilevel" runs the V-cycle).
func (c *Context) GDPartition(name, mode string, k int) (*partition.Assignment, error) {
	engine := c.Engine
	if engine == "" {
		engine = "gd"
	}
	key := fmt.Sprintf("%s:%s:%s:k=%d", engine, name, mode, k)
	if a, ok := c.parts[key]; ok {
		return a, nil
	}
	g, err := c.Graph(name)
	if err != nil {
		return nil, err
	}
	ws, err := modeWeights(g, mode)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var a *partition.Assignment
	switch engine {
	case "gd":
		a, err = core.PartitionK(g, ws, k, c.GDOptions())
	case "multilevel":
		a, err = multilevel.PartitionK(g, ws, k, multilevel.Options{GD: c.GDOptions()})
	default:
		// Every other engine dispatches through the injected registry hook;
		// the gd/multilevel fast paths above stay on the historical option
		// mapping so cached experiment outputs remain comparable.
		if c.EngineSolve == nil {
			return nil, fmt.Errorf("experiments: engine %q requested but no EngineSolve dispatch wired", engine)
		}
		a, err = c.EngineSolve(g, ws, k)
	}
	if err != nil {
		return nil, err
	}
	c.Logf("%-3s %-18s mode=%-11s k=%-3d locality=%5.1f%% (%.1fs)",
		strings.ToUpper(engine), name, mode, k, 100*partition.EdgeLocality(g, a), time.Since(start).Seconds())
	c.parts[key] = a
	return a, nil
}

// HashPartition returns the cached hash assignment.
func (c *Context) HashPartition(name string, k int) (*partition.Assignment, error) {
	key := fmt.Sprintf("hash:%s:k=%d", name, k)
	if a, ok := c.parts[key]; ok {
		return a, nil
	}
	g, err := c.Graph(name)
	if err != nil {
		return nil, err
	}
	a := baselines.Hash(g.N(), k, c.Seed)
	c.parts[key] = a
	return a, nil
}

// BLPPartition returns the cached BLP assignment (balanced on vertex+edge).
func (c *Context) BLPPartition(name string, k int) (*partition.Assignment, error) {
	key := fmt.Sprintf("blp:%s:k=%d", name, k)
	if a, ok := c.parts[key]; ok {
		return a, nil
	}
	g, err := c.Graph(name)
	if err != nil {
		return nil, err
	}
	ws, err := c.Weights(name, 2)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	a := baselines.BLP(g, ws, k, baselines.BLPOptions{Seed: c.Seed})
	c.Logf("BLP %-18s k=%-3d locality=%5.1f%% (%.1fs)",
		name, k, 100*partition.EdgeLocality(g, a), time.Since(start).Seconds())
	c.parts[key] = a
	return a, nil
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Experiment is one registered reproduction target.
type Experiment struct {
	Name  string // registry key, e.g. "fig5"
	Paper string // e.g. "Figure 5"
	Desc  string
	Run   func(*Context) ([]*Table, error)
}

// registry holds all experiments in paper order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByName finds an experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, 0, len(registry))
	for _, e := range registry {
		names = append(names, e.Name)
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
}

func pct(x float64) string  { return fmt.Sprintf("%.1f", 100*x) }
func pct2(x float64) string { return fmt.Sprintf("%.2f", 100*x) }
