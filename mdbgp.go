// Package mdbgp is a Go implementation of Multi-Dimensional Balanced Graph
// Partitioning via Projected Gradient Descent (Avdiukhin, Pupyrev,
// Yaroslavtsev — VLDB / arXiv:1902.03522, 2019).
//
// Given an undirected graph and d positive vertex weight functions, the
// partitioner splits the vertices into k parts so that every part's total
// weight is within (1±ε)·W/k for every weight function simultaneously, while
// maximizing edge locality (the fraction of uncut edges). The algorithm runs
// randomized projected gradient ascent on a continuous relaxation of the
// max-uncut objective and rounds the fractional solution; k-way partitions
// use recursive bisection.
//
// Quick start:
//
//	b := mdbgp.NewBuilder(0)
//	b.AddEdge(0, 1) // ...
//	g := b.Build()
//	res, err := mdbgp.Partition(g, mdbgp.Options{K: 4, Epsilon: 0.05})
//	// res.Assignment.Parts[v] is the part of vertex v.
//
// # Incremental repartitioning
//
// Because GD refines a fractional solution, it is uniquely warm-startable:
// when a graph changes by a small edge delta, the previous partition is a
// near-feasible, near-optimal starting point, and re-solving from it costs a
// fraction of a cold solve. ParseEdgeDelta/ApplyEdgeDelta materialize the
// updated graph from "+u v"/"-u v" lines, and PartitionWarm (equivalently,
// Options.WarmAssignment) seeds the solver with the prior assignment: each
// recursive bisection starts from the damped ±1 encoding of the prior parts
// instead of the origin, skips the cold-start noise and spends a reduced
// iteration budget (Options.WarmIterations). The warm solve runs the same
// projection constraints, rounding and balance repair as a cold one, so the
// ε-balance guarantee is identical; only the trajectory — and therefore the
// time to reach it — changes. cmd/mdbgpd serves this as delta jobs
// (POST /v1/partition?base=...) and cmd/mdbgp as the -base/-delta flags.
//
// # Engines
//
// Every solver dispatches through one registry (Engine, RegisterEngine,
// Engines): Options.Engine selects "gd" (the default), the "multilevel"
// V-cycle, the "fennel"/"blp"/"shp" baselines or the "metis" comparator,
// each with declared capabilities (warm-start and multi-dimensional weight
// support). Options.Fingerprint covers the engine name, so distinct engines
// never share a content-addressed cache entry.
//
// The packages under internal/ contain the full system: the GD core, exact
// and iterative projection algorithms, baseline partitioners (Hash, Spinner,
// BLP, SHP), a METIS-style multilevel multi-constraint comparator, a
// Giraph-like cluster simulator with the paper's four workloads, and the
// harness regenerating every table and figure of the paper (cmd/experiments).
//
// # Parallel execution
//
// Each GD iteration is an SpMV gradient step plus a coordinate-separable
// projection — both embarrassingly parallel (Theorem 1.1: O(|E|/m) per step
// on m workers) — and sibling subgraphs of the recursive bisection are
// independent. Options.Parallelism controls the worker count for all three
// levels (0 uses every core, 1 forces the serial path); the cmd/mdbgp and
// cmd/experiments binaries expose it as the -p flag. Floating point
// reductions are combined in a fixed chunk order and every recursion branch
// derives its own RNG stream, so for a fixed Seed the partition is
// bit-identical regardless of Parallelism.
//
// # Multilevel execution
//
// Engine = "multilevel" switches each bisection to a V-cycle (-engine
// multilevel on both binaries): the graph is coarsened by size-capped greedy
// clustering — multi-dimensional vertex weights and cut weights are
// preserved exactly at every level — GD runs on the coarsest level, and the
// fractional solution is prolongated level by level as a warm start for a
// shrinking budget of refinement iterations, with rounding and balance
// repair only at the finest level. Direct GD pays O(|E|) per iteration for
// the full budget; the V-cycle pays one contraction pass per level plus a
// few refinement sweeps, which on large community-structured graphs reaches
// the same edge locality several times faster (see BenchmarkMultilevel* and
// BENCH_multilevel.json). Coarsening, like the rest of the engine, is
// deterministic for a fixed Seed at any Parallelism. Graphs at or below
// Options.CoarsenTo fall back to direct GD transparently.
package mdbgp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strings"

	"mdbgp/internal/gen"
	"mdbgp/internal/graph"
	"mdbgp/internal/obs"
	"mdbgp/internal/partition"
	"mdbgp/internal/project"
	"mdbgp/internal/weights"
)

// Graph is an immutable undirected graph in CSR form.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// Edge is an undirected edge for FromEdges.
type Edge = graph.Edge

// Assignment maps every vertex to one of K parts.
type Assignment = partition.Assignment

// Span is one timed region of an observability trace (see Options.Observer
// and NewTrace). A nil *Span is a valid no-op sink.
type Span = obs.Span

// SpanView is the immutable JSON-ready snapshot of a Span tree, produced by
// Span.Snapshot.
type SpanView = obs.SpanView

// NewTrace starts an observability span tree rooted at a span with the given
// name. Hand the root (or any descendant) to Options.Observer to have the
// solve record its phases — per-bisection GD, multilevel coarsening and
// refinement, rounding — underneath it, then export with Span.Snapshot.
func NewTrace(name string) *Span { return obs.NewTrace(name) }

// NewBuilder returns a graph builder for n vertices (the vertex set grows
// automatically as edges are added).
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a whitespace-separated "u v" edge list ('#'/'%'
// comment lines allowed).
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadEdgeListInto streams an edge list into an existing builder, allowing
// callers to accumulate several sources, bound the accepted vertex-id range
// (maxVertexID; 0 means the representation limit, the unbounded mode trusted
// in-process callers like the router's edge hashing use), or interleave
// programmatic AddEdge calls before Build. This is the serving ingest entry
// point for the text codec; binary uploads go through internal/wire instead
// (docs/WIRE_FORMAT.md).
func ReadEdgeListInto(b *Builder, r io.Reader, maxVertexID int) error {
	return graph.ReadEdgeListInto(b, r, maxVertexID)
}

// EngineVersion identifies the generation of the solver algorithms. Results
// are deterministic for a fixed seed within a generation, so caches keyed on
// (EngineVersion, graph hash, options fingerprint) never go stale; bump this
// whenever an intentional algorithm change regenerates the golden outputs so
// persistent or shared caches stop serving the previous generation's
// results.
const EngineVersion = "gd2"

// EdgeDelta is a batch of edge insertions and deletions against a base
// graph — the unit of incremental repartitioning.
type EdgeDelta = graph.Delta

// DeltaStats reports the effective change a delta application made; its
// Churn method is the edge-churn fraction thresholds are defined over.
type DeltaStats = graph.DeltaStats

// ParseEdgeDelta reads "+u v" / "-u v" lines (optional ignored trailing
// weight, '#'/'%' comments) with the same vertex-id hardening as
// ReadEdgeListInto: maxVertexID bounds accepted ids, 0 meaning the
// representation limit.
func ParseEdgeDelta(r io.Reader, maxVertexID int) (*EdgeDelta, error) {
	return graph.ParseDelta(r, maxVertexID)
}

// ApplyEdgeDelta materializes base with the delta applied, leaving base
// untouched. New vertex ids grow the vertex set; removing all edges of a
// vertex keeps it, so assignments stay index-aligned with the base.
func ApplyEdgeDelta(base *Graph, d *EdgeDelta) (*Graph, DeltaStats) {
	return graph.ApplyDelta(base, d)
}

// WriteEdgeDelta writes d in the format ParseEdgeDelta reads.
func WriteEdgeDelta(w io.Writer, d *EdgeDelta) error { return graph.WriteDelta(w, d) }

// ReadAssignment parses "vertex part" lines (the format written by cmd/mdbgp
// and the daemon's /assignment endpoint) into a parts slice indexed by
// vertex id, suitable for Options.WarmAssignment. Vertices never mentioned
// are -1 (no prior opinion); maxVertexID bounds accepted ids (0 means the
// representation limit).
func ReadAssignment(r io.Reader, maxVertexID int) ([]int32, error) {
	return partition.ReadParts(r, maxVertexID)
}

// WriteEdgeList writes the graph as an edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Weight selects one of the standard balance dimensions studied in the
// paper.
type Weight int

const (
	// WeightVertices balances the number of vertices per part.
	WeightVertices Weight = iota
	// WeightEdges balances the total degree (≈ edges) per part.
	WeightEdges
	// WeightNeighborDegrees balances the sum of neighbor degrees, a proxy
	// for 2-hop neighborhood size.
	WeightNeighborDegrees
	// WeightPageRank balances PageRank mass, a proxy for vertex activity.
	WeightPageRank
)

// String returns the dimension name accepted by ParseWeightDims.
func (w Weight) String() string {
	switch w {
	case WeightVertices:
		return "vertices"
	case WeightEdges:
		return "edges"
	case WeightNeighborDegrees:
		return "neighbor-degrees"
	case WeightPageRank:
		return "pagerank"
	}
	return fmt.Sprintf("weight(%d)", int(w))
}

// ParseWeightDims parses a comma-separated list of balance-dimension names
// — "vertices", "edges", "neighbor-degrees", "pagerank" — as accepted by
// the CLIs and the serving API. Empty entries are dropped; an empty list
// defaults to vertices,edges (the paper's vertex-edge partitioning). The
// second return is the canonical comma-joined form, suitable as a cache-key
// component.
func ParseWeightDims(csv string) ([]Weight, string, error) {
	var dims []Weight
	for _, d := range strings.Split(csv, ",") {
		switch strings.TrimSpace(d) {
		case "vertices":
			dims = append(dims, WeightVertices)
		case "edges":
			dims = append(dims, WeightEdges)
		case "neighbor-degrees":
			dims = append(dims, WeightNeighborDegrees)
		case "pagerank":
			dims = append(dims, WeightPageRank)
		case "":
		default:
			return nil, "", fmt.Errorf("mdbgp: unknown balance dimension %q (want vertices, edges, neighbor-degrees, pagerank)", strings.TrimSpace(d))
		}
	}
	if len(dims) == 0 {
		dims = []Weight{WeightVertices, WeightEdges}
	}
	names := make([]string, len(dims))
	for i, d := range dims {
		names[i] = d.String()
	}
	return dims, strings.Join(names, ","), nil
}

// ValidateProjection reports whether name is an accepted Options.Projection
// value ("" selects the default). Used by front ends to fail fast on typos.
func ValidateProjection(name string) error {
	if name == "" {
		return nil
	}
	_, err := project.ParseMethod(name)
	return err
}

// StandardWeights materializes weight vectors for the requested dimensions.
func StandardWeights(g *Graph, dims ...Weight) ([][]float64, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("mdbgp: at least one weight dimension required")
	}
	out := make([][]float64, 0, len(dims))
	for _, d := range dims {
		switch d {
		case WeightVertices:
			out = append(out, weights.Unit(g))
		case WeightEdges:
			out = append(out, weights.Degree(g))
		case WeightNeighborDegrees:
			out = append(out, weights.NeighborDegreeSum(g))
		case WeightPageRank:
			out = append(out, weights.PageRank(g, 0.85, 20))
		default:
			return nil, fmt.Errorf("mdbgp: unknown weight dimension %d", d)
		}
	}
	return out, nil
}

// Options configures Partition. The zero value requests the paper's
// defaults: k = 2, ε = 5%, vertex+edge balance, 100 iterations of adaptive
// gradient ascent with vertex fixing and one-shot alternating projection.
type Options struct {
	// Engine selects the solver by registry name: "gd" (default), a
	// "multilevel" V-cycle, the streaming/label-propagation baselines
	// "fennel", "blp" and "shp", or the "metis" multilevel comparator — see
	// Engines() for the capability matrix. All engines dispatch through the
	// same API and cache machinery; distinct engines never share a cache key
	// (Fingerprint covers the engine name). Unknown names fail Partition.
	Engine string
	// K is the number of parts (default 2). Non-powers of two are handled
	// with asymmetric recursive splits.
	K int
	// Epsilon is the per-dimension balance tolerance (default 0.05).
	Epsilon float64
	// Weights are the balance dimensions; nil defaults to vertex + edge
	// (the paper's vertex-edge partitioning). Each vector must be strictly
	// positive with one entry per vertex.
	Weights [][]float64
	// Iterations is the gradient iteration budget per bisection (default
	// 100).
	Iterations int
	// StepLength scales the per-iteration progress target s·√n/Iterations
	// (default 2, the paper's recommendation).
	StepLength float64
	// Projection selects the projection algorithm: "" or
	// "alternating-oneshot" (default), "alternating", "dykstra", "exact",
	// "nested".
	Projection string
	// Seed makes runs deterministic.
	Seed int64
	// Parallelism is the number of worker goroutines used by the gradient
	// kernels, the projection and concurrent recursive bisection; 0 uses
	// GOMAXPROCS, 1 forces the serial path. For a fixed Seed the result is
	// bit-identical regardless of Parallelism.
	Parallelism int
	// DisableAdaptiveStep freezes the step size (the paper's ablation
	// baseline; normally leave false).
	DisableAdaptiveStep bool
	// DisableVertexFixing turns off snapping of near-integral coordinates.
	DisableVertexFixing bool
	// CoarsenTo stops multilevel coarsening once a level has at most this
	// many vertices (0 = default 8000). Only used by the "multilevel"
	// engine.
	CoarsenTo int
	// ClusterSize caps coarsening clusters at this multiple of the average
	// vertex weight (0 = default 32). Only used by the "multilevel" engine.
	ClusterSize int
	// RefineIterations is the finest-level refinement budget of the V-cycle
	// (0 = default 16). Only used by the "multilevel" engine.
	RefineIterations int
	// WarmAssignment, when non-nil, warm-starts the solve from a prior
	// partition of the same or a similar graph (incremental repartitioning):
	// each recursive bisection seeds its fractional solution with the damped
	// ±1 encoding of the prior parts instead of the origin, skips the
	// cold-start noise, and spends the reduced WarmIterations budget. Entries
	// are prior part ids in [0, K); negative values — conventionally -1 —
	// mean "no prior opinion" and start neutral, while ids >= K are rejected
	// (a prior assignment from a different K is not a usable warm start).
	// The slice may be shorter than g.N() (vertices the base never saw are
	// padded with -1) but not longer.
	// Warm solves run the same projection constraints, rounding and balance
	// repair as cold ones, so the ε-balance guarantee is unchanged. Ignored
	// by PartitionDirect.
	WarmAssignment []int32
	// WarmIterations is the per-bisection gradient budget of warm-started
	// solves (0 = a quarter of Iterations, rounded up): a warm start lands
	// near a good solution, so most of the cold budget would be spent
	// confirming it. Only used when WarmAssignment is set.
	WarmIterations int
	// PrepHierarchy, when non-nil, injects a prebuilt coarsening hierarchy
	// (see PrepareHierarchy) so the "multilevel" and "metis" engines skip
	// their coarsening pass on repeat solves of the same graph. The engines
	// accept it only for the exact graph, seed and coarsening knobs it was
	// built under — anything else rebuilds — which keeps injected solves
	// byte-identical to cold ones. EXCLUDED from Fingerprint, passed through
	// Canonical untouched.
	PrepHierarchy *PreparedHierarchy
	// Observer, when non-nil, is the parent span the solve records its span
	// tree under: per-bisection GD with sampled convergence telemetry
	// (locality trajectory, iterations to 90% of final locality), multilevel
	// coarsen/refine phases, and rounding. Tracing never changes the
	// partition — span structure and attributes are deterministic for a
	// fixed Seed at any Parallelism, only durations vary — and it is
	// deliberately EXCLUDED from Fingerprint and from Canonical's
	// normalization: a traced and an untraced request must share a
	// content-addressed cache entry, so an observer must never split cache
	// keys. Engines without gradient kernels record no engine-level spans.
	Observer *Span
}

// Canonical returns the options with every defaulted field made explicit:
// Engine resolves to its registry name, K, Epsilon, Iterations, StepLength
// and Projection take their documented defaults, and the multilevel knobs
// are normalized — filled in for the multilevel engine, zeroed otherwise
// (they have no effect then). Partition(g, o) and
// Partition(g, o.Canonical()) produce identical results. Weights,
// Parallelism, Observer and the prep-artifact injection (PrepHierarchy) are
// passed through untouched.
func (o Options) Canonical() Options {
	if o.Engine == "" {
		o.Engine = DefaultEngine
	}
	if o.K == 0 {
		o.K = 2
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.05
	}
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.StepLength <= 0 {
		o.StepLength = 2
	}
	if o.Projection == "" {
		o.Projection = project.AlternatingOneShot.String()
	}
	if o.Engine == "multilevel" {
		if o.CoarsenTo <= 0 {
			o.CoarsenTo = 8000
		}
		if o.ClusterSize <= 0 {
			o.ClusterSize = 32
		}
		if o.RefineIterations <= 0 {
			o.RefineIterations = 16
		}
	} else {
		o.CoarsenTo, o.ClusterSize, o.RefineIterations = 0, 0, 0
	}
	if o.WarmAssignment != nil {
		if o.WarmIterations <= 0 {
			o.WarmIterations = (o.Iterations + 3) / 4
		}
	} else {
		o.WarmIterations = 0 // inert without a warm assignment
	}
	return o
}

// Fingerprint returns a stable hex digest of the canonicalized options —
// the options half of a content-addressed cache key (pair it with
// Graph.HashString for the graph half). Two option values that lead to the
// same partition fingerprint identically: defaults are made explicit via
// Canonical, and Parallelism is excluded because results are bit-identical
// at any worker count — as is the prep-artifact injection (PrepHierarchy),
// which amortizes preprocessing without changing a single output bit. The
// engine name is always covered, so distinct engines can never share a
// cache entry for the same graph.
// Weights vectors and the WarmAssignment, when set, contribute their exact
// contents: a warm-started solve follows a different trajectory than a cold
// one, so the two must never share a cache entry.
func (o Options) Fingerprint() string {
	c := o.Canonical()
	h := sha256.New()
	fmt.Fprintf(h, "engine=%s|k=%d|eps=%g|iters=%d|step=%g|proj=%s|seed=%d|noadapt=%t|nofix=%t|coarsen=%d|cluster=%d|refine=%d|warmiters=%d|dims=%d",
		c.Engine, c.K, c.Epsilon, c.Iterations, c.StepLength, c.Projection, c.Seed,
		c.DisableAdaptiveStep, c.DisableVertexFixing,
		c.CoarsenTo, c.ClusterSize, c.RefineIterations,
		c.WarmIterations, len(c.Weights))
	var buf [8]byte
	for _, w := range c.Weights {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(w)))
		h.Write(buf[:])
		for _, x := range w {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	if c.WarmAssignment != nil {
		fmt.Fprintf(h, "|warm=%d|", len(c.WarmAssignment))
		var b4 [4]byte
		for _, p := range c.WarmAssignment {
			binary.LittleEndian.PutUint32(b4[:], uint32(p))
			h.Write(b4[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Result reports a partition and its quality.
type Result struct {
	// Assignment maps each vertex to its part.
	Assignment *Assignment
	// EdgeLocality is the fraction of uncut edges (higher is better).
	EdgeLocality float64
	// CutEdges is the number of edges crossing parts.
	CutEdges int64
	// Imbalances is max/avg − 1 per weight dimension.
	Imbalances []float64
}

// Partition splits g into Options.K balanced parts maximizing edge
// locality, dispatching to the engine Options.Engine names (default "gd").
// Unknown engines are an error, as is a warm-started request
// (Options.WarmAssignment) naming an engine without warm-start capability —
// front ends that prefer degradation over failure (the daemon's delta path)
// should check Engines() and drop the warm start themselves.
func Partition(g *Graph, opts Options) (*Result, error) {
	c := opts.Canonical()
	if c.K < 1 {
		return nil, fmt.Errorf("mdbgp: K = %d, want >= 1", c.K)
	}
	eng, err := LookupEngine(c.Engine)
	if err != nil {
		return nil, err
	}
	if c.WarmAssignment != nil && !eng.Info().WarmStart {
		return nil, fmt.Errorf("mdbgp: engine %q does not support warm starts; solve cold or use a warm-capable engine", c.Engine)
	}
	return eng.Solve(g, c)
}

// PartitionWarm partitions g starting from a prior assignment of the same
// or a similar graph — the incremental-repartitioning entry point. It is
// Partition with Options.WarmAssignment set to warm: typically the cached
// assignment of a base graph, applied to ApplyEdgeDelta's materialization of
// the updated graph. warm may be shorter than g.N() (new vertices start
// neutral) but not longer; see Options.WarmAssignment for the semantics.
func PartitionWarm(g *Graph, warm []int32, opts Options) (*Result, error) {
	opts.WarmAssignment = warm
	return Partition(g, opts)
}

// WarmAssignmentError reports an invalid Options.WarmAssignment: a part id
// outside [0, K) that is not the -1 no-opinion marker, or a slice longer
// than the graph. It is a client-input error, not a solver fault — front
// ends match it with errors.As to answer 400 instead of 500.
type WarmAssignmentError struct {
	// Vertex and Part identify the offending entry; Vertex is -1 for
	// slice-length errors.
	Vertex int
	Part   int32
	// K is the requested part count the entry was validated against.
	K int
	// Len and N describe a slice-length error (warm longer than the graph).
	Len, N int
}

func (e *WarmAssignmentError) Error() string {
	if e.Vertex < 0 {
		return fmt.Sprintf("mdbgp: warm assignment has %d entries, graph has %d vertices", e.Len, e.N)
	}
	if e.Part < -1 {
		return fmt.Sprintf("mdbgp: warm assignment part %d at vertex %d is negative (only -1 means \"no prior opinion\")", e.Part, e.Vertex)
	}
	return fmt.Sprintf("mdbgp: warm assignment part %d at vertex %d is outside [0, K=%d) — was the base solved with a different K?", e.Part, e.Vertex, e.K)
}

// ValidateWarmAssignment checks a prospective Options.WarmAssignment against
// a graph of n vertices and a part count of k, returning a
// *WarmAssignmentError describing the first violation. Entries must be prior
// part ids in [0, k) or the -1 no-opinion marker: ids >= k mean the prior
// solve used a different K, ids below -1 are corrupt, and either would feed
// garbage into the damped warm start rather than a usable prior. The slice
// may be shorter than n (missing vertices start neutral) but not longer.
func ValidateWarmAssignment(warm []int32, n, k int) error {
	if len(warm) > n {
		return &WarmAssignmentError{Vertex: -1, K: k, Len: len(warm), N: n}
	}
	for v, p := range warm {
		if int(p) >= k || p < -1 {
			return &WarmAssignmentError{Vertex: v, Part: p, K: k}
		}
	}
	return nil
}

// padWarm validates a warm assignment (see ValidateWarmAssignment — ids
// outside [0, k) are rejected rather than treated as neutral, because
// silently degrading most of the graph to a no-opinion warm start at the
// reduced warm budget produces a drastically worse partition than a cold
// solve would) and pads missing tail entries with -1 (no prior opinion).
func padWarm(warm []int32, n, k int) ([]int32, error) {
	if err := ValidateWarmAssignment(warm, n, k); err != nil {
		return nil, err
	}
	if len(warm) == n {
		return warm, nil
	}
	padded := make([]int32, n)
	copy(padded, warm)
	for i := len(warm); i < n; i++ {
		padded[i] = -1
	}
	return padded, nil
}

// EdgeLocality returns the fraction of uncut edges of an assignment.
func EdgeLocality(g *Graph, a *Assignment) float64 { return partition.EdgeLocality(g, a) }

// Imbalance returns max/avg − 1 of the per-part totals of w.
func Imbalance(a *Assignment, w []float64) float64 { return partition.Imbalance(a, w) }

// MaxImbalance returns the worst Imbalance across weight dimensions.
func MaxImbalance(a *Assignment, ws [][]float64) float64 { return partition.MaxImbalance(a, ws) }

// IsBalanced reports whether the assignment is ε-balanced in every
// dimension.
func IsBalanced(a *Assignment, ws [][]float64, eps float64) bool {
	return partition.IsBalanced(a, ws, eps)
}

// SocialGraphConfig configures the synthetic social-network generator (a
// degree-corrected hierarchical stochastic block model).
type SocialGraphConfig = gen.SBMConfig

// GenerateSocialGraph produces a synthetic social network and the planted
// community of each vertex. Deterministic in cfg.Seed.
func GenerateSocialGraph(cfg SocialGraphConfig) (*Graph, []int32) { return gen.SBM(cfg) }

// GenerateRMAT produces a 2^scale-vertex R-MAT graph.
func GenerateRMAT(scale, edgeFactor int, a, b, c float64, seed int64) *Graph {
	return gen.RMAT(scale, edgeFactor, a, b, c, seed)
}
