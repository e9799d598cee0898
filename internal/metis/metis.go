package metis

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mdbgp/internal/coarsen"
	"mdbgp/internal/graph"
	"mdbgp/internal/partition"
)

// Options configures the multilevel partitioner.
type Options struct {
	// UBFactor is the allowed part overweight factor per constraint during
	// refinement, e.g. 1.005 allows 0.5% imbalance (METIS's default grain).
	UBFactor float64
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices (default 160).
	CoarsenTo int
	// InitialTries is the number of greedy-graph-growing attempts at the
	// coarsest level (default 8).
	InitialTries int
	// RefinePasses bounds FM passes per uncoarsening level (default 6).
	RefinePasses int
	Seed         int64
	// Prep, when non-nil and built for exactly the graph being solved (see
	// Prep.Matches), injects a prebuilt matching hierarchy: Bisect skips its
	// coarsening pass and refines over the cached levels. Because the
	// hierarchy and the solve consume separate RNG streams, an injected
	// solve is byte-identical to one that rebuilds. Ignored (with a rebuild)
	// for any other graph, so PartitionK's child subgraphs — fresh
	// allocations — never see a stale hierarchy.
	Prep *Prep
}

// Prep is a prebuilt matching hierarchy for one specific graph — the
// assignment-independent half of a METIS-style solve. Immutable and safe to
// share across concurrent solves; only valid for the exact vertex weights
// and options it was built with (prep caches key artifacts by graph content
// hash plus every hierarchy-shaping parameter, seed included).
type Prep struct {
	graph  *graph.Graph
	levels []*coarsen.Graph
	cmaps  [][]int32
	// Hierarchy-shaping parameters recorded at build time; usable rejects an
	// injection whose solve disagrees, degrading a mis-keyed cache to a
	// rebuild instead of a divergent solve.
	seed      int64
	coarsenTo int
}

// BuildPrep runs the coarsening pass of Bisect(g, ws, ·, opt) and captures
// the hierarchy, consuming the same hierarchy RNG stream the inline pass
// would.
func BuildPrep(g *graph.Graph, ws [][]float64, opt Options) *Prep {
	opt.normalize()
	level0 := coarsen.FromGraph(g, ws)
	rng := rand.New(rand.NewSource(opt.Seed))
	levels, cmaps := coarsen.Hierarchy(level0, hierarchyOptions(opt), rng, nil)
	return &Prep{graph: g, levels: levels, cmaps: cmaps, seed: opt.Seed, coarsenTo: opt.CoarsenTo}
}

// Matches reports whether the prep was built for exactly this graph value
// (pointer identity — content identity is the cache key's responsibility).
func (p *Prep) Matches(g *graph.Graph) bool { return p != nil && p.graph == g }

// usable additionally verifies the normalized solve options agree with the
// hierarchy-shaping parameters the prep was built under.
func (p *Prep) usable(g *graph.Graph, opt *Options) bool {
	return p.Matches(g) && p.seed == opt.Seed && p.coarsenTo == opt.CoarsenTo
}

// Bytes estimates the heap footprint for cache byte accounting. Conservative:
// the finest level's CSR aliases the base graph (only its unit edge weights
// are materialized) and the shared bytes are charged anyway.
func (p *Prep) Bytes() int64 {
	var b int64
	for _, lv := range p.levels {
		b += lv.Bytes()
	}
	for _, cm := range p.cmaps {
		b += int64(len(cm)) * 4
	}
	return b
}

// hierarchyOptions is the single source of truth for how the comparator
// coarsens, shared by Bisect's inline pass and BuildPrep so cached and
// rebuilt hierarchies can never diverge.
func hierarchyOptions(opt Options) coarsen.HierarchyOptions {
	return coarsen.HierarchyOptions{
		CoarsenTo:  opt.CoarsenTo,
		StallRatio: 0.95,
		// Plain heavy-edge matching is blind on the unit-weight finest level
		// (every edge weighs 1); shared-neighbor scoring keeps the matching
		// inside clusters, which is what lets FM refinement find low cuts.
		Match: coarsen.MatchOptions{CommonNeighbors: true},
	}
}

// solveSeed derives the initial-bisection/refinement RNG stream from the
// configured seed. It is distinct from the hierarchy stream (seeded with
// opt.Seed directly) so the solve consumes identical randomness whether the
// hierarchy was rebuilt or injected — Hierarchy draws a variable number of
// permutations, including for rejected stall attempts, and sharing one
// stream would make the solve depend on how coarsening went.
func solveSeed(seed int64) int64 { return seed*1000003 + 13 }

func (o *Options) normalize() {
	if o.UBFactor <= 1 {
		o.UBFactor = 1.005
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 160
	}
	if o.InitialTries <= 0 {
		o.InitialTries = 8
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 6
	}
}

// Bisect computes a multi-constraint bisection of g with target split
// fractions (alpha, 1−alpha) per dimension.
func Bisect(g *graph.Graph, ws [][]float64, alpha float64, opt Options) (*partition.Assignment, error) {
	opt.normalize()
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.5
	}
	n := g.N()
	if len(ws) == 0 {
		return nil, fmt.Errorf("metis: at least one weight function required")
	}
	for j, w := range ws {
		if len(w) != n {
			return nil, fmt.Errorf("metis: weight %d length %d != n %d", j, len(w), n)
		}
	}
	a := partition.NewAssignment(n, 2)
	if n == 0 {
		return a, nil
	}

	var hierarchy []*coarsen.Graph
	var maps [][]int32
	if opt.Prep.usable(g, &opt) {
		hierarchy, maps = opt.Prep.levels, opt.Prep.cmaps
	} else {
		// Level 0: the shared weighted-graph wrapper with materialized unit
		// edge weights (FM refinement indexes edge weights unconditionally).
		level0 := coarsen.FromGraph(g, ws)
		hrng := rand.New(rand.NewSource(opt.Seed))
		hierarchy, maps = coarsen.Hierarchy(level0, hierarchyOptions(opt), hrng, nil)
	}
	rng := rand.New(rand.NewSource(solveSeed(opt.Seed)))

	coarsest := hierarchy[len(hierarchy)-1]
	side := initialBisect(coarsest, alpha, opt, rng)
	refine(coarsest, side, alpha, opt, rng)

	for li := len(hierarchy) - 2; li >= 0; li-- {
		fine := hierarchy[li]
		cmap := maps[li]
		fineSide := make([]int8, fine.N())
		for v := range fineSide {
			fineSide[v] = side[cmap[v]]
		}
		side = fineSide
		refine(fine, side, alpha, opt, rng)
	}

	for v := 0; v < n; v++ {
		if side[v] < 0 {
			a.Parts[v] = 1
		}
	}
	return a, nil
}

// PartitionK partitions into k parts by recursive bisection, the mode the
// paper uses for multi-constraint METIS.
func PartitionK(g *graph.Graph, ws [][]float64, k int, opt Options) (*partition.Assignment, error) {
	opt.normalize()
	if k <= 0 {
		return nil, fmt.Errorf("metis: k = %d, want >= 1", k)
	}
	n := g.N()
	asgn := partition.NewAssignment(n, k)
	if k == 1 || n == 0 {
		return asgn, nil
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	var rec func(sub *graph.Graph, subWs [][]float64, subIDs []int32, k, base int, seed int64) error
	rec = func(sub *graph.Graph, subWs [][]float64, subIDs []int32, k, base int, seed int64) error {
		if k == 1 {
			for _, id := range subIDs {
				asgn.Parts[id] = int32(base)
			}
			return nil
		}
		if sub.N() == 0 {
			return nil // nothing to assign; see core.recurse
		}
		k1 := (k + 1) / 2
		o := opt
		o.Seed = seed
		bi, err := Bisect(sub, subWs, float64(k1)/float64(k), o)
		if err != nil {
			return err
		}
		var left, right []int32
		for v := 0; v < sub.N(); v++ {
			if bi.Parts[v] == 0 {
				left = append(left, int32(v))
			} else {
				right = append(right, int32(v))
			}
		}
		split := func(local []int32) (*graph.Graph, [][]float64, []int32) {
			if len(local) == 0 {
				return graph.NewBuilder(0).Build(), make([][]float64, len(subWs)), nil
			}
			child, _ := graph.Subgraph(sub, local)
			cw := make([][]float64, len(subWs))
			for j := range subWs {
				cw[j] = make([]float64, len(local))
				for i, lv := range local {
					cw[j][i] = subWs[j][lv]
				}
			}
			cids := make([]int32, len(local))
			for i, lv := range local {
				cids[i] = subIDs[lv]
			}
			return child, cw, cids
		}
		lg, lw, lids := split(left)
		rg, rw, rids := split(right)
		if err := rec(lg, lw, lids, k1, base, seed*31+1); err != nil {
			return err
		}
		return rec(rg, rw, rids, k-k1, base+k1, seed*31+2)
	}
	if err := rec(g, ws, ids, k, 0, opt.Seed); err != nil {
		return nil, err
	}
	return asgn, nil
}

// initialBisect runs greedy graph growing from several random seeds and
// keeps the lowest-cut result whose primary dimension hits the target.
func initialBisect(g *coarsen.Graph, alpha float64, opt Options, rng *rand.Rand) []int8 {
	n := g.N()
	totals := g.Totals()
	target0 := alpha * totals[0]
	bestSide := make([]int8, n)
	bestCut := math.Inf(1)
	queue := make([]int32, 0, n)
	inSide := make([]bool, n)
	for try := 0; try < opt.InitialTries; try++ {
		for i := range inSide {
			inSide[i] = false
		}
		queue = queue[:0]
		seed := rng.Intn(n)
		queue = append(queue, int32(seed))
		inSide[seed] = true
		w0 := g.VW[0][seed]
		for qi := 0; qi < len(queue) && w0 < target0; qi++ {
			v := queue[qi]
			ns, _ := g.Neighbors(int(v))
			for _, u := range ns {
				if !inSide[u] && w0 < target0 {
					inSide[u] = true
					w0 += g.VW[0][u]
					queue = append(queue, u)
				}
			}
		}
		// Disconnected leftovers: add random vertices until target reached.
		for w0 < target0 {
			v := rng.Intn(n)
			if !inSide[v] {
				inSide[v] = true
				w0 += g.VW[0][v]
			}
		}
		side := make([]int8, n)
		for v := range side {
			if inSide[v] {
				side[v] = 1
			} else {
				side[v] = -1
			}
		}
		if c := g.Cut(side); c < bestCut {
			bestCut = c
			copy(bestSide, side)
		}
	}
	return bestSide
}

// refine runs FM-style passes: first restore any violated constraint with
// least-damage moves, then make positive-gain moves that keep every
// dimension inside the UBFactor bounds. Each vertex moves at most once per
// pass.
func refine(g *coarsen.Graph, side []int8, alpha float64, opt Options, rng *rand.Rand) {
	n := g.N()
	d := len(g.VW)
	totals := g.Totals()
	load0 := make([]float64, d) // weight of side +1
	for j := 0; j < d; j++ {
		for v := 0; v < n; v++ {
			if side[v] > 0 {
				load0[j] += g.VW[j][v]
			}
		}
	}
	hi := make([]float64, d) // max allowed side-+1 weight
	lo := make([]float64, d)
	for j := 0; j < d; j++ {
		hi[j] = opt.UBFactor * alpha * totals[j]
		lo[j] = totals[j] - opt.UBFactor*(1-alpha)*totals[j]
	}

	gain := func(v int) float64 {
		ns, ews := g.Neighbors(v)
		gn := 0.0
		for i, u := range ns {
			if side[u] == side[v] {
				gn -= ews[i]
			} else {
				gn += ews[i]
			}
		}
		return gn
	}
	feasibleMove := func(v int) bool {
		dir := -float64(side[v]) // moving v changes load0 by dir·w
		for j := 0; j < d; j++ {
			nl := load0[j] + dir*g.VW[j][v]
			if nl > hi[j]+1e-9 || nl < lo[j]-1e-9 {
				return false
			}
		}
		return true
	}
	apply := func(v int) {
		dir := -float64(side[v])
		for j := 0; j < d; j++ {
			load0[j] += dir * g.VW[j][v]
		}
		side[v] = -side[v]
	}

	moved := make([]bool, n)
	for pass := 0; pass < opt.RefinePasses; pass++ {
		for i := range moved {
			moved[i] = false
		}
		// Balance phase: pull the worst violated dimension back in bounds.
		// As in multi-constraint FM, a balance move may not push any OTHER
		// currently-satisfied dimension out of its bounds — this is exactly
		// why the multilevel approach gets stuck when d ≥ 3 constraints
		// conflict (Table 3 of the paper).
		balanceOK := func(v int, worstJ int) bool {
			dir := -float64(side[v])
			for j := 0; j < d; j++ {
				if j == worstJ {
					continue
				}
				nl := load0[j] + dir*g.VW[j][v]
				cur := load0[j]
				inBounds := cur <= hi[j]+1e-9 && cur >= lo[j]-1e-9
				if inBounds && (nl > hi[j]+1e-9 || nl < lo[j]-1e-9) {
					return false
				}
				if !inBounds { // never worsen an already-violated dimension
					curEx := math.Max(cur-hi[j], lo[j]-cur)
					newEx := math.Max(nl-hi[j], lo[j]-nl)
					if newEx > curEx+1e-9 {
						return false
					}
				}
			}
			return true
		}
		for bal := 0; bal < n; bal++ {
			worstJ, excess, fromSide := -1, 0.0, int8(1)
			for j := 0; j < d; j++ {
				if over := load0[j] - hi[j]; over > excess {
					worstJ, excess, fromSide = j, over, 1
				}
				if under := lo[j] - load0[j]; under > excess {
					worstJ, excess, fromSide = j, under, -1
				}
			}
			if worstJ < 0 {
				break
			}
			best, bestScore := -1, math.Inf(-1)
			for c := 0; c < 256; c++ {
				v := rng.Intn(n)
				if side[v] != fromSide || moved[v] || g.VW[worstJ][v] <= 0 || !balanceOK(v, worstJ) {
					continue
				}
				score := gain(v) / (1 + g.VW[worstJ][v])
				if score > bestScore {
					best, bestScore = v, score
				}
			}
			if best == -1 {
				for v := 0; v < n; v++ {
					if side[v] == fromSide && !moved[v] && g.VW[worstJ][v] > 0 && balanceOK(v, worstJ) {
						best = v
						break
					}
				}
			}
			if best == -1 {
				break // stuck: conflicting constraints (the d ≥ 3 regime)
			}
			apply(best)
			moved[best] = true
		}
		// Gain phase: positive-gain boundary moves respecting all bounds.
		var cands []cand
		for v := 0; v < n; v++ {
			if moved[v] {
				continue
			}
			if gn := gain(v); gn > 0 {
				cands = append(cands, cand{int32(v), gn})
			}
		}
		if len(cands) == 0 {
			continue
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].g > cands[b].g })
		applied := 0
		for _, c := range cands {
			v := int(c.v)
			if moved[v] {
				continue
			}
			if gn := gain(v); gn > 0 && feasibleMove(v) {
				apply(v)
				moved[v] = true
				applied++
			}
		}
		if applied == 0 {
			break
		}
	}
}

// cand is a refinement move candidate with its cut gain.
type cand struct {
	v int32
	g float64
}
