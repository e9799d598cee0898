package mdbgp

import (
	"fmt"
	"sort"
	"sync"

	"mdbgp/internal/baselines"
	"mdbgp/internal/core"
	"mdbgp/internal/metis"
	"mdbgp/internal/multilevel"
	"mdbgp/internal/partition"
	"mdbgp/internal/project"
)

// EngineInfo describes a registered solver: its registry name and the
// capabilities front ends use to validate requests before dispatching.
type EngineInfo struct {
	// Name is the registry key, as accepted by Options.Engine, the CLIs'
	// -engine flag and the daemon's ?engine= parameter.
	Name string
	// WarmStart reports whether the engine honors Options.WarmAssignment
	// (incremental repartitioning). Engines without it must be solved cold;
	// Partition rejects a warm request naming one.
	WarmStart bool
	// Weighted reports whether the engine balances the caller's
	// multi-dimensional Options.Weights. Engines without it balance a fixed
	// built-in dimension (Fennel: vertex count; SHP: a combined edge+vertex
	// mix) and silently ignore the weight vectors — Result.Imbalances still
	// reports how the requested dimensions came out.
	Weighted bool
	// Deterministic reports whether results are bit-identical for a fixed
	// Options.Seed at any Parallelism — the property the content-addressed
	// result cache relies on. Every built-in engine is deterministic.
	Deterministic bool
	// Streaming reports whether the engine has an out-of-core variant that
	// consumes adjacency rows in vertex order without a materialized CSR
	// (baselines.FennelStream). The serving layer routes graphs exceeding
	// its -max-resident-edges budget only through streaming engines; see
	// docs/WIRE_FORMAT.md for the ingest pipeline. Note the out-of-core
	// variant visits vertices in natural rather than seeded-random order, so
	// it produces a different (equally valid) partition than the in-core
	// solve and is cached under a separate key.
	Streaming bool
	// Description is a one-line summary for -engine help text and docs.
	Description string
}

// Engine is one partitioning strategy behind the shared solve API. Solve
// receives canonicalized options (defaults explicit, Engine resolved) and
// must be deterministic in opts.Seed when Info().Deterministic is set.
type Engine interface {
	Info() EngineInfo
	Solve(g *Graph, opts Options) (*Result, error)
}

// DefaultEngine is the engine Options.Engine == "" resolves to.
const DefaultEngine = "gd"

var (
	engineMu sync.RWMutex
	engines  = map[string]Engine{}
)

// RegisterEngine adds an engine to the registry under its Info().Name.
// Registering a duplicate name or an empty name is an error; the built-in
// engines register at init time.
func RegisterEngine(e Engine) error {
	name := e.Info().Name
	if name == "" {
		return fmt.Errorf("mdbgp: engine has empty name")
	}
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, dup := engines[name]; dup {
		return fmt.Errorf("mdbgp: engine %q already registered", name)
	}
	engines[name] = e
	return nil
}

// LookupEngine resolves an Options.Engine value ("" selects DefaultEngine).
func LookupEngine(name string) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	engineMu.RLock()
	e, ok := engines[name]
	engineMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mdbgp: unknown engine %q (have %v)", name, EngineNames())
	}
	return e, nil
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	engineMu.RLock()
	defer engineMu.RUnlock()
	names := make([]string, 0, len(engines))
	for name := range engines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Engines returns the EngineInfo of every registered engine, sorted by name
// — the capability matrix front ends render and validate against.
func Engines() []EngineInfo {
	engineMu.RLock()
	defer engineMu.RUnlock()
	infos := make([]EngineInfo, 0, len(engines))
	for _, e := range engines {
		infos = append(infos, e.Info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

func init() {
	for _, e := range []Engine{gdEngine{}, multilevelEngine{}, fennelEngine{}, blpEngine{}, shpEngine{}, metisEngine{}} {
		if err := RegisterEngine(e); err != nil {
			panic(err)
		}
	}
}

// resolveWeights returns the balance dimensions of a solve: the caller's
// Options.Weights, defaulting to vertex + edge.
func resolveWeights(g *Graph, opts Options) ([][]float64, error) {
	if opts.Weights != nil {
		return opts.Weights, nil
	}
	return StandardWeights(g, WeightVertices, WeightEdges)
}

// buildResult scores an assignment against the solve's weight dimensions.
func buildResult(g *Graph, ws [][]float64, asgn *Assignment) *Result {
	cut := partition.CutEdges(g, asgn)
	res := &Result{
		Assignment:   asgn,
		EdgeLocality: partition.LocalityFromCut(cut, g.M()),
		CutEdges:     cut,
	}
	for _, w := range ws {
		res.Imbalances = append(res.Imbalances, partition.Imbalance(asgn, w))
	}
	return res
}

// gdCoreOptions maps canonicalized public options onto the GD core,
// including the damped warm-start trajectory when a warm assignment is set.
func gdCoreOptions(g *Graph, opts Options) (core.Options, error) {
	opt := core.DefaultOptions()
	opt.Epsilon = opts.Epsilon
	opt.Iterations = opts.Iterations
	opt.StepLength = opts.StepLength
	opt.Seed = opts.Seed
	opt.Workers = opts.Parallelism
	opt.Adaptive = !opts.DisableAdaptiveStep
	opt.VertexFixing = !opts.DisableVertexFixing
	opt.Span = opts.Observer
	if opts.Projection != "" {
		m, err := project.ParseMethod(opts.Projection)
		if err != nil {
			return opt, err
		}
		opt.Projection = project.Options{Method: m, Center: m == project.AlternatingOneShot}
	}
	if opts.WarmAssignment != nil {
		warm, err := padWarm(opts.WarmAssignment, g.N(), opts.K)
		if err != nil {
			return opt, err
		}
		opt.WarmParts = warm
		// A warm start needs only a refinement budget, and — as in the
		// multilevel V-cycle's refinement — projects onto the slab itself
		// rather than its center: the prior solution is already feasible,
		// and re-centering every iteration would drag its near-integral
		// coordinates back toward the origin instead of polishing them.
		opt.Iterations = opts.WarmIterations
		opt.StepLength = opts.StepLength * float64(opts.WarmIterations) / float64(opts.Iterations)
		opt.Projection.Center = false
	}
	return opt, nil
}

// gdEngine is the paper's partitioner: randomized projected gradient ascent
// on the continuous relaxation, k-way via recursive bisection.
type gdEngine struct{}

func (gdEngine) Info() EngineInfo {
	return EngineInfo{
		Name: "gd", WarmStart: true, Weighted: true, Deterministic: true,
		Description: "projected gradient descent with recursive bisection (the paper's method)",
	}
}

func (gdEngine) Solve(g *Graph, opts Options) (*Result, error) {
	opts = opts.Canonical() // a no-op via Partition; direct Solve callers get the same defaults
	ws, err := resolveWeights(g, opts)
	if err != nil {
		return nil, err
	}
	opt, err := gdCoreOptions(g, opts)
	if err != nil {
		return nil, err
	}
	asgn, err := core.PartitionK(g, ws, opts.K, opt)
	if err != nil {
		return nil, err
	}
	return buildResult(g, ws, asgn), nil
}

// multilevelEngine is GD through the V-cycle: coarsen, solve coarse,
// prolongate as a warm start, refine per level.
type multilevelEngine struct{}

func (multilevelEngine) Info() EngineInfo {
	return EngineInfo{
		Name: "multilevel", WarmStart: true, Weighted: true, Deterministic: true,
		Description: "V-cycle multilevel GD (coarsen, solve coarse, warm-started refinement)",
	}
}

func (multilevelEngine) Solve(g *Graph, opts Options) (*Result, error) {
	// Canonical fills the multilevel knobs and the warm budget the step
	// formula below divides by — direct Solve callers skip Partition's
	// canonicalization.
	if opts.Engine == "" {
		opts.Engine = "multilevel"
	}
	opts = opts.Canonical()
	ws, err := resolveWeights(g, opts)
	if err != nil {
		return nil, err
	}
	opt, err := gdCoreOptions(g, opts)
	if err != nil {
		return nil, err
	}
	mlOpt := multilevel.Options{
		GD:               opt,
		CoarsenTo:        opts.CoarsenTo,
		ClusterSize:      opts.ClusterSize,
		RefineIterations: opts.RefineIterations,
	}
	// An injected hierarchy rides along only when it was prepared for this
	// engine; the V-cycle re-verifies graph, seed and coarsening knobs.
	if ph := opts.PrepHierarchy; ph != nil && ph.ml != nil {
		mlOpt.Prep = ph.ml
	}
	asgn, err := multilevel.PartitionK(g, ws, opts.K, mlOpt)
	if err != nil {
		return nil, err
	}
	return buildResult(g, ws, asgn), nil
}

// fennelEngine is the restreaming Fennel baseline: one-dimensional (vertex
// count) balance with a hard per-part cap of (1+ε)·n/k.
type fennelEngine struct{}

func (fennelEngine) Info() EngineInfo {
	return EngineInfo{
		Name: "fennel", WarmStart: false, Weighted: false, Deterministic: true, Streaming: true,
		Description: "restreaming Fennel (streaming heuristic; balances vertex count only)",
	}
}

func (fennelEngine) Solve(g *Graph, opts Options) (*Result, error) {
	opts = opts.Canonical()
	ws, err := resolveWeights(g, opts)
	if err != nil {
		return nil, err
	}
	asgn := baselines.Fennel(g, opts.K, baselines.FennelOptions{
		Slack: 1 + opts.Epsilon, Seed: opts.Seed,
	})
	return buildResult(g, ws, asgn), nil
}

// blpEngine is the two-phase balanced label propagation baseline; the
// cluster-merge phase balances every requested weight dimension.
type blpEngine struct{}

func (blpEngine) Info() EngineInfo {
	return EngineInfo{
		Name: "blp", WarmStart: false, Weighted: true, Deterministic: true,
		Description: "balanced label propagation (size-constrained clustering + multi-dim merge)",
	}
}

func (blpEngine) Solve(g *Graph, opts Options) (*Result, error) {
	opts = opts.Canonical()
	ws, err := resolveWeights(g, opts)
	if err != nil {
		return nil, err
	}
	asgn := baselines.BLP(g, ws, opts.K, baselines.BLPOptions{Seed: opts.Seed})
	return buildResult(g, ws, asgn), nil
}

// shpEngine is the Social-Hash-Partitioner-style local search: pairwise
// exchanges balancing one fixed combined edge+vertex dimension.
type shpEngine struct{}

func (shpEngine) Info() EngineInfo {
	return EngineInfo{
		Name: "shp", WarmStart: false, Weighted: false, Deterministic: true,
		Description: "SHP-style local search (balances a fixed combined edge+vertex dimension)",
	}
}

func (shpEngine) Solve(g *Graph, opts Options) (*Result, error) {
	opts = opts.Canonical()
	ws, err := resolveWeights(g, opts)
	if err != nil {
		return nil, err
	}
	asgn := baselines.SHP(g, opts.K, baselines.SHPOptions{
		Tol: opts.Epsilon, Seed: opts.Seed,
	})
	return buildResult(g, ws, asgn), nil
}

// PartitionDirect partitions with the non-recursive k-way relaxation of
// §3.3 of the paper: every vertex carries a probability vector over the k
// buckets and projected gradient ascent runs on the joint objective. Each
// iteration costs O(k·|E|) time and O(k·|V|) memory — the communication
// blowup that makes the paper prefer recursive bisection at scale — but it
// avoids the greedy top-level cut, which can help for moderate k. Options
// are interpreted as in Partition (Engine, Projection and the Disable*
// flags are ignored; the method has its own fixed projection scheme).
func PartitionDirect(g *Graph, opts Options) (*Result, error) {
	if opts.K == 0 {
		opts.K = 2
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("mdbgp: K = %d, want >= 1", opts.K)
	}
	ws, err := resolveWeights(g, opts)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultDirectKOptions()
	opt.Epsilon = opts.Epsilon
	if opt.Epsilon <= 0 {
		opt.Epsilon = 0.05
	}
	if opts.Iterations > 0 {
		opt.Iterations = opts.Iterations
	}
	if opts.StepLength > 0 {
		opt.StepLength = opts.StepLength
	}
	opt.Seed = opts.Seed
	opt.Workers = opts.Parallelism
	asgn, err := core.DirectKWay(g, ws, opts.K, opt)
	if err != nil {
		return nil, err
	}
	return buildResult(g, ws, asgn), nil
}

// metisEngine is the METIS-style multi-constraint multilevel comparator:
// heavy-edge coarsening, greedy graph growing, FM refinement.
type metisEngine struct{}

func (metisEngine) Info() EngineInfo {
	return EngineInfo{
		Name: "metis", WarmStart: false, Weighted: true, Deterministic: true,
		Description: "METIS-style multi-constraint multilevel (heavy-edge matching + FM refinement)",
	}
}

func (metisEngine) Solve(g *Graph, opts Options) (*Result, error) {
	opts = opts.Canonical()
	ws, err := resolveWeights(g, opts)
	if err != nil {
		return nil, err
	}
	mo := metis.Options{UBFactor: 1 + opts.Epsilon, Seed: opts.Seed}
	// An injected hierarchy rides along only when it was prepared for this
	// engine; Bisect re-verifies graph, seed and coarsening knobs.
	if ph := opts.PrepHierarchy; ph != nil && ph.mt != nil {
		mo.Prep = ph.mt
	}
	asgn, err := metis.PartitionK(g, ws, opts.K, mo)
	if err != nil {
		return nil, err
	}
	return buildResult(g, ws, asgn), nil
}
