package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"mdbgp"
	"mdbgp/internal/gen"
	"mdbgp/internal/wire"
)

// Workload names accepted by -workload.
const (
	wlGDCold        = "gd-cold"
	wlMLRepartition = "ml-repartition"
	wlServeMix      = "serve-mix"
)

var workloadNames = []string{wlGDCold, wlMLRepartition, wlServeMix}

// version is one graph the daemon is asked to solve: an uploaded graph or
// one materialized by an edge delta. Its graph is exactly what the daemon
// holds after ingesting fullBody, so results can be checked against it.
type version struct {
	g      *mdbgp.Graph
	binary bool   // fullBody is in the binary wire format
	body   []byte // full upload; built on first use for delta versions
	hash   string // canonical graph hash; computed on first use

	// k and seed of the most recent request planned on this version: a
	// delta against it asks for the same options so the daemon can
	// warm-start from that solve.
	k    int
	seed int64
}

// fullBody returns the version's full upload body.
func (v *version) fullBody() []byte {
	if v.body == nil {
		var buf bytes.Buffer
		if err := mdbgp.WriteEdgeList(&buf, v.g); err != nil {
			panic(err) // writes to a bytes.Buffer do not fail
		}
		v.body = buf.Bytes()
	}
	return v.body
}

// graphHash returns the canonical hash the daemon derives for the version.
func (v *version) graphHash() string {
	if v.hash == "" {
		v.hash = v.g.HashString()
	}
	return v.hash
}

// op is one planned request. Planned ops are a pure function of the
// workload seed; only the job id substituted for a delta's base depends on
// the daemon's responses.
type op struct {
	kind   string // "cold", "repeat" or "delta"
	query  string // submit query without wait and base
	body   []byte // upload: the full graph, or the delta for kind "delta"
	binary bool
	ver    *version // the graph the request solves
	base   *version // for deltas: the version the delta applies to
	k      int
	dims   []mdbgp.Weight
}

// planner yields a client's requests in order.
type planner interface{ next() *op }

// workload is a generated input set plus its request plans.
type workload struct {
	name string
	dims []mdbgp.Weight
	// graphs are the uploaded graphs, the inputs the probes run on.
	graphs []*version
	// newPlans returns fresh planners, one per client, each restarting its
	// request sequence from the beginning.
	newPlans func() []planner
}

// mix derives an independent non-negative stream seed from the workload seed
// and a salt (splitmix64 finalizer).
func mix(seed int64, salt uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 33)
}

// buildWorkload generates name's inputs from seed.
func buildWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case wlGDCold:
		return gdCold(seed)
	case wlMLRepartition:
		return mlRepartition(seed)
	case wlServeMix:
		return serveMix(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// gdCold is one ≈1M-edge degree-skewed social graph with randomly permuted
// vertex ids, uploaded in the binary codec and solved by engine=gd at k=16
// with a fresh seed per request, so no request hits the result cache.
func gdCold(seed int64) (*workload, error) {
	g, _ := gen.SBM(gen.SBMConfig{
		N: 125000, Communities: 64, AvgDegree: 16, InFraction: 0.7,
		DegreeExponent: 2, BlockDegreeSkew: 1, Seed: mix(seed, 1),
	})
	g = relabel(g, rand.New(rand.NewSource(mix(seed, 2))))
	v, err := binaryVersion(g)
	if err != nil {
		return nil, err
	}
	dims := []mdbgp.Weight{mdbgp.WeightVertices, mdbgp.WeightEdges}
	return &workload{
		name: wlGDCold, dims: dims, graphs: []*version{v},
		newPlans: func() []planner {
			i := uint64(0)
			return []planner{planFunc(func() *op {
				s := mix(seed, 1000+i)
				i++
				return &op{kind: "cold", query: "engine=gd&k=16&seed=" + strconv.FormatInt(s, 10),
					body: v.body, binary: true, ver: v, k: 16, dims: dims}
			})}
		},
	}, nil
}

// mlKs are the part counts each ml-repartition seed is requested at, in
// order: the first request builds and caches the coarsening hierarchy, the
// others miss the result cache but reuse it. Three requests per seed keep
// the median latency inside one of the groups instead of on the boundary
// between the hierarchy-building and the hierarchy-reusing requests.
var mlKs = []int{8, 4, 2}

// mlRepartition is one community-dense graph with ids as generated, solved
// by engine=multilevel on three dimensions at every k of mlKs per seed.
// The in-block edge share 0.85 keeps every solve on the multilevel path: at
// 0.8 the coarsest level retains about half the edge weight, the engine's
// fallback threshold, and about half the seeds fall back to plain GD at
// twice the cost, which would make the workload measure that coin flip.
func mlRepartition(seed int64) (*workload, error) {
	g, _ := gen.SBM(gen.SBMConfig{
		N: 150000, Communities: 6000, AvgDegree: 14, InFraction: 0.85,
		DegreeExponent: 2, Seed: mix(seed, 3),
	})
	v, err := binaryVersion(g)
	if err != nil {
		return nil, err
	}
	dims := []mdbgp.Weight{mdbgp.WeightVertices, mdbgp.WeightEdges, mdbgp.WeightPageRank}
	return &workload{
		name: wlMLRepartition, dims: dims, graphs: []*version{v},
		newPlans: func() []planner {
			i := uint64(0)
			return []planner{planFunc(func() *op {
				s := mix(seed, 2000+i/uint64(len(mlKs)))
				k := mlKs[i%uint64(len(mlKs))]
				i++
				q := fmt.Sprintf("engine=multilevel&dims=vertices,edges,pagerank&k=%d&seed=%d", k, s)
				return &op{kind: "cold", query: q, body: v.body, binary: true, ver: v, k: k, dims: dims}
			})}
		},
	}, nil
}

// Serve-mix shape: graphsPerClient text graphs per closed-loop client, and
// the request mix (shares of repeats and cold solves; the rest are deltas).
const (
	serveClients    = 2
	graphsPerClient = 8
	repeatShare     = 0.7
	coldShare       = 0.2
	repeatWindow    = 64  // repeats pick among a client's most recent ops
	deltaEvery      = 200 // a delta rewires one edge in deltaEvery: ≈1% churn
)

// serveMix is 16 small social graphs as text edge lists, split between two
// clients, with a seeded mix of cache-hitting repeats, cold solves at a new
// seed, and ≈1%-churn deltas that create new graph versions.
func serveMix(seed int64) (*workload, error) {
	dims := []mdbgp.Weight{mdbgp.WeightVertices, mdbgp.WeightEdges}
	graphs := make([]*version, serveClients*graphsPerClient)
	for i := range graphs {
		n := 2000 + i*700
		g0, _ := gen.SBM(gen.SBMConfig{
			N: n, Communities: max(4, n/500), AvgDegree: 10, InFraction: 0.7,
			DegreeExponent: 2, BlockDegreeSkew: 1, Seed: mix(seed, 100+uint64(i)),
		})
		v, err := textVersion(g0)
		if err != nil {
			return nil, err
		}
		graphs[i] = v
	}
	return &workload{
		name: wlServeMix, dims: dims, graphs: graphs,
		newPlans: func() []planner {
			ps := make([]planner, serveClients)
			for c := range ps {
				own := make([]*version, graphsPerClient)
				for j := range own {
					// Planning mutates versions (latest options), so every
					// plan starts from private copies of the uploaded graphs.
					v := *graphs[c*graphsPerClient+j]
					own[j] = &v
				}
				ps[c] = &mixPlan{
					rng: rand.New(rand.NewSource(mix(seed, 300+uint64(c)))), latest: own, dims: dims,
				}
			}
			return ps
		},
	}, nil
}

// mixPlan is one serve-mix client's request sequence.
type mixPlan struct {
	rng     *rand.Rand
	latest  []*version // newest version of each owned graph
	dims    []mdbgp.Weight
	history []*op // ops eligible for repeats, oldest first
}

func (p *mixPlan) next() *op {
	r := p.rng.Float64()
	if r < repeatShare && len(p.history) > 0 {
		h := p.history[max(0, len(p.history)-repeatWindow):]
		o := *h[p.rng.Intn(len(h))]
		o.kind = "repeat"
		return &o
	}
	j := p.rng.Intn(len(p.latest))
	v := p.latest[j]
	if r < repeatShare+coldShare || v.k == 0 {
		// A cold solve at a new seed; also the first request on a graph,
		// since a delta needs a solved base to warm-start from.
		k := []int{4, 8, 16}[p.rng.Intn(3)]
		s := p.rng.Int63n(1 << 31)
		v.k, v.seed = k, s
		o := &op{kind: "cold", query: fmt.Sprintf("engine=gd&k=%d&seed=%d", k, s),
			body: v.fullBody(), ver: v, k: k, dims: p.dims}
		p.history = append(p.history, o)
		return o
	}
	d, next := perturb(v.g, p.rng)
	var buf bytes.Buffer
	if err := mdbgp.WriteEdgeDelta(&buf, d); err != nil {
		panic(err) // writes to a bytes.Buffer do not fail
	}
	nv := &version{g: next, k: v.k, seed: v.seed}
	p.latest[j] = nv
	o := &op{kind: "delta", query: fmt.Sprintf("engine=gd&k=%d&seed=%d", v.k, v.seed),
		body: buf.Bytes(), ver: nv, base: v, k: v.k, dims: p.dims}
	p.history = append(p.history, o)
	return o
}

// perturb builds a ≈1%-churn delta against g and applies it. Removals that
// would leave the highest vertex id isolated are dropped: a text upload
// cannot express a trailing isolated vertex, and the materialized graph must
// equal what a full re-upload of it would produce.
func perturb(g *mdbgp.Graph, rng *rand.Rand) (*mdbgp.EdgeDelta, *mdbgp.Graph) {
	n := g.N()
	d := gen.PerturbDelta(g, deltaEvery, 1+rng.Intn(n-1), 1+rng.Intn(n-1))
	next, _ := mdbgp.ApplyEdgeDelta(g, d)
	if next.Degree(n-1) > 0 {
		return d, next
	}
	last := int32(n - 1)
	kept := d.Remove[:0:0]
	for _, e := range d.Remove {
		if e.U != last && e.V != last {
			kept = append(kept, e)
		}
	}
	d.Remove = kept
	next, _ = mdbgp.ApplyEdgeDelta(g, d)
	return d, next
}

// planFunc adapts a closure to planner.
type planFunc func() *op

func (f planFunc) next() *op { return f() }

// relabel returns g with its vertex ids permuted at random.
func relabel(g *mdbgp.Graph, rng *rand.Rand) *mdbgp.Graph {
	perm := rng.Perm(g.N())
	b := mdbgp.NewBuilder(g.N())
	g.EachEdge(func(u, v int) bool {
		b.AddEdge(perm[u], perm[v])
		return true
	})
	return b.Build()
}

func binaryVersion(g *mdbgp.Graph) (*version, error) {
	var buf bytes.Buffer
	if err := wire.Encode(&buf, g, nil); err != nil {
		return nil, fmt.Errorf("encoding graph: %w", err)
	}
	return &version{g: g, binary: true, body: buf.Bytes()}, nil
}

// textVersion writes g as a text edge list and re-reads it, so the version's
// graph is exactly what the daemon builds from the upload (the text codec
// cannot carry isolated vertices past the highest id).
func textVersion(g *mdbgp.Graph) (*version, error) {
	var buf bytes.Buffer
	if err := mdbgp.WriteEdgeList(&buf, g); err != nil {
		return nil, err
	}
	parsed, err := mdbgp.ReadEdgeList(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("re-reading generated edge list: %w", err)
	}
	return &version{g: parsed, body: buf.Bytes()}, nil
}

// submitURL is the submit path for o; base, when non-empty, is the job id a
// delta applies to.
func submitURL(o *op, base string) string {
	q := o.query + "&wait=true"
	if base != "" {
		q += "&base=" + url.QueryEscape(base)
	}
	return "/v1/partition?" + q
}
