package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"mdbgp/internal/graph"
	"mdbgp/internal/obs"
	"mdbgp/internal/partition"
)

// PartitionK partitions g into k parts by recursive bisection (§3.3 of the
// paper): ⌈log2 k⌉ levels of GD, each splitting its subgraph with target
// fraction ⌈k'/2⌉/k'. The per-level ε budget is opt.Epsilon/⌈log2 k⌉ so the
// leaf imbalance stays ≈ ε after multiplicative accumulation; k need not be
// a power of two.
//
// Sibling subgraphs after a split are vertex-disjoint and are bisected
// concurrently when opt.Workers allows: a shared semaphore bounds the extra
// goroutines, each branch derives its own RNG seed, and branches write
// disjoint entries of the assignment, so the result is identical to the
// serial recursion.
func PartitionK(g *graph.Graph, ws [][]float64, k int, opt Options) (*partition.Assignment, error) {
	return PartitionKWith(g, ws, k, opt, Bisect)
}

// BisectFunc computes one 2-way split during recursive k-way partitioning.
// Implementations must honor opt.Seed, opt.Workers and opt.TargetFraction
// the way Bisect does; the multilevel driver plugs its V-cycle in here.
type BisectFunc func(g *graph.Graph, ws [][]float64, opt Options) (*Result, error)

// PartitionKWith is PartitionK with a pluggable bisection: the same ε
// budgeting, seed derivation and concurrent sibling recursion, but each
// 2-way split delegated to bisect.
func PartitionKWith(g *graph.Graph, ws [][]float64, k int, opt Options, bisect BisectFunc) (*partition.Assignment, error) {
	opt.normalize()
	if k <= 0 {
		return nil, fmt.Errorf("core: k = %d, want >= 1", k)
	}
	n := g.N()
	if err := checkWeights(n, ws); err != nil {
		return nil, err
	}
	if opt.WarmParts != nil && len(opt.WarmParts) != n {
		return nil, fmt.Errorf("core: warm parts length %d, graph has %d vertices", len(opt.WarmParts), n)
	}
	asgn := partition.NewAssignment(n, k)
	if k == 1 || n == 0 {
		return asgn, nil
	}
	levels := int(math.Ceil(math.Log2(float64(k))))
	opt.Epsilon /= float64(levels)
	// Multiplex a caller's per-iteration Trace across the bisection tree
	// instead of dropping it: concurrent sibling bisections share the hook,
	// so calls are serialized here, and each bisection tags its IterStats
	// with its recursion path (recurse installs the tagging wrapper).
	if tr := opt.Trace; tr != nil {
		var mu sync.Mutex
		opt.Trace = func(st IterStats) {
			mu.Lock()
			defer mu.Unlock()
			tr(st)
		}
	}
	// The root bisection span is created here; recurse creates each child's
	// span before forking the branch, so the span tree's structure depends
	// only on the recursion shape, never on the goroutine schedule.
	rootSpan := opt.Span.Start("bisect")
	opt.Span = nil

	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	// Resolve the worker budget once so recursion can split it between
	// concurrent branches (a branch forking with budget w hands ⌈w/2⌉ and
	// ⌊w/2⌋ to its children, keeping the total pool goroutines across all
	// concurrent Bisect calls ≈ workers instead of workers²).
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	var sem chan struct{}
	if opt.Workers > 1 {
		// Tokens for branches forked off the current goroutine; the
		// recursion itself always keeps running, so workers−1 tokens give
		// at most `workers` concurrent branches.
		sem = make(chan struct{}, opt.Workers-1)
	}
	if err := recurse(g, ws, ids, k, 0, opt, asgn, sem, bisect, rootSpan, ""); err != nil {
		return nil, err
	}
	return asgn, nil
}

// recurse bisects sub (whose local vertex i is global ids[i]) into k parts
// labeled base..base+k−1 in asgn. sp is this subtree's span (created by the
// caller, nil when untraced) and path its position in the bisection tree
// ("" root, then "0"/"1" appended per level).
func recurse(sub *graph.Graph, ws [][]float64, ids []int32, k, base int, opt Options, asgn *partition.Assignment, sem chan struct{}, bisect BisectFunc, sp *obs.Span, path string) error {
	if k == 1 {
		for _, id := range ids {
			asgn.Parts[id] = int32(base)
		}
		return nil
	}
	// The caller created sp before this branch was scheduled; its clock
	// starts now, so waiting for a sibling subtree is not counted as time
	// spent in this one.
	sp.Begin()
	defer sp.End()
	k1 := (k + 1) / 2
	o := opt
	o.TargetFraction = float64(k1) / float64(k)
	o.Span = sp
	if sp != nil {
		sp.SetAttr("path", path)
		sp.SetAttr("k", k)
		sp.SetAttr("n", sub.N())
	}
	if tr := opt.Trace; tr != nil {
		p := path
		o.Trace = func(st IterStats) {
			st.Path = p
			tr(st)
		}
	}
	if opt.WarmParts != nil {
		// The bisection consumes the prior assignment in fractional form;
		// children receive the restricted integral slice below.
		o.WarmStart = warmFromParts(opt.WarmParts, base, k1, k)
		o.WarmParts = nil
	}
	res, err := bisect(sub, ws, o)
	if err != nil {
		return err
	}

	var leftLocal, rightLocal []int32
	for v := 0; v < sub.N(); v++ {
		if res.Assignment.Parts[v] == 0 {
			leftLocal = append(leftLocal, int32(v))
		} else {
			rightLocal = append(rightLocal, int32(v))
		}
	}

	build := func(local []int32) (*graph.Graph, [][]float64, []int32) {
		if len(local) == 0 {
			return graph.NewBuilder(0).Build(), restrictWeights(ws, nil), nil
		}
		child, _ := graph.Subgraph(sub, local)
		childWs := restrictWeights(ws, local)
		childIDs := make([]int32, len(local))
		for i, lv := range local {
			childIDs[i] = ids[lv]
		}
		return child, childWs, childIDs
	}

	leftG, leftWs, leftIDs := build(leftLocal)
	rightG, rightWs, rightIDs := build(rightLocal)

	// An injected prep layout belongs to the root graph only; child subgraphs
	// are fresh CSRs that must rebuild (or skip) their own layouts. Matches
	// would almost always reject it anyway — clearing makes root-only a
	// guarantee instead of a probability.
	oLeft := opt
	oLeft.Seed = opt.Seed*1000003 + 1
	oLeft.Layout = nil
	oRight := opt
	oRight.Seed = opt.Seed*1000003 + 2
	oRight.Layout = nil
	if opt.WarmParts != nil {
		oLeft.WarmParts = restrictParts(opt.WarmParts, leftLocal)
		oRight.WarmParts = restrictParts(opt.WarmParts, rightLocal)
	}
	// Child spans are created here, in the parent's goroutine and in fixed
	// left-then-right order, BEFORE the left branch may fork: sibling order
	// in the trace is part of the determinism contract. Each child's clock
	// starts when its branch begins (recurse calls Begin), so when the
	// branches run serially the right span does not also cover the left
	// subtree. A k==1 child runs no bisection and gets no span.
	var spLeft, spRight *obs.Span
	if k1 > 1 {
		spLeft = sp.Start("bisect")
	}
	if k-k1 > 1 {
		spRight = sp.Start("bisect")
	}

	// The two branches touch disjoint vertices (and disjoint asgn entries)
	// and carry independently derived seeds, so running them concurrently
	// cannot change the result (Workers never affects the bits, only the
	// schedule). Fork the left branch onto another goroutine when a
	// semaphore token is free, halving each side's kernel-worker budget so
	// concurrent branches don't oversubscribe the CPU; otherwise recurse
	// serially with the full budget.
	if sem != nil && opt.Workers > 1 {
		select {
		case sem <- struct{}{}:
			oLeft.Workers = (opt.Workers + 1) / 2
			oRight.Workers = opt.Workers - oLeft.Workers
			var wg sync.WaitGroup
			var errLeft error
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				errLeft = recurse(leftG, leftWs, leftIDs, k1, base, oLeft, asgn, sem, bisect, spLeft, path+"0")
			}()
			errRight := recurse(rightG, rightWs, rightIDs, k-k1, base+k1, oRight, asgn, sem, bisect, spRight, path+"1")
			wg.Wait()
			if errLeft != nil {
				return errLeft
			}
			return errRight
		default:
		}
	}
	if err := recurse(leftG, leftWs, leftIDs, k1, base, oLeft, asgn, sem, bisect, spLeft, path+"0"); err != nil {
		return err
	}
	return recurse(rightG, rightWs, rightIDs, k-k1, base+k1, oRight, asgn, sem, bisect, spRight, path+"1")
}

// WarmPartDamp scales the ±1 encoding of a prior assignment before it seeds
// a warm-started bisection. The rationale mirrors the multilevel V-cycle's
// prolongation damping: an undamped ±1 coordinate would re-fix on the first
// iteration, freezing the prior decision before the new graph's gradient
// ever votes; 0.98 stays below the 0.99 fix threshold, so one agreeing step
// re-saturates it and one disagreeing step pulls it free.
const WarmPartDamp = 0.98

// warmFromParts encodes a prior k-way assignment as a fractional warm start
// for the split of parts [base, base+k) into [base, base+k1) (side +1) and
// [base+k1, base+k) (side −1). Parts outside the range — vertices the prior
// solution assigned elsewhere, or -1 for vertices it never saw — stay 0.
func warmFromParts(parts []int32, base, k1, k int) []float64 {
	x := make([]float64, len(parts))
	for i, p := range parts {
		switch {
		case int(p) >= base && int(p) < base+k1:
			x[i] = WarmPartDamp
		case int(p) >= base+k1 && int(p) < base+k:
			x[i] = -WarmPartDamp
		}
	}
	return x
}

func restrictParts(parts []int32, local []int32) []int32 {
	sub := make([]int32, len(local))
	for i, v := range local {
		sub[i] = parts[v]
	}
	return sub
}

func restrictWeights(ws [][]float64, local []int32) [][]float64 {
	out := make([][]float64, len(ws))
	for j, w := range ws {
		sub := make([]float64, len(local))
		for i, v := range local {
			sub[i] = w[v]
		}
		out[j] = sub
	}
	return out
}
