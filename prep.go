package mdbgp

import (
	"fmt"

	"mdbgp/internal/metis"
	"mdbgp/internal/multilevel"
)

// Prepared artifacts are the assignment-independent half of a solve — work
// that depends only on the graph's structure (and a handful of
// hierarchy-shaping options), not on which partition comes out. A front end
// that sees the same graph repeatedly (the daemon's prep cache) builds the
// artifact once, keyed by graph content hash plus the artifact's parameters,
// and injects it into every subsequent solve via Options.PrepHierarchy.
// Injection is strictly an amortization: a solve with an artifact injected is
// byte-identical to one that rebuilds it, the engines re-verify every
// artifact against the graph and options actually being solved (a stale or
// mismatched injection degrades to a rebuild, never to a wrong answer), and
// the field does not participate in Fingerprint.

// PreparedHierarchy is a reusable coarsening hierarchy for one specific graph
// under one specific engine: the multilevel V-cycle's cluster hierarchy or
// the METIS comparator's matching hierarchy. The artifact depends on the
// solve seed and the engine's coarsening knobs, so prep-cache keys must cover
// them (see the engines' Prep docs); the engines re-verify seed and knobs at
// injection time regardless. Immutable and safe to inject into concurrent
// solves.
type PreparedHierarchy struct {
	engine string
	ml     *multilevel.Prep
	mt     *metis.Prep
}

// PrepareHierarchy builds the coarsening hierarchy a cold solve of g with
// these options would build inline. Only engines that coarsen — "multilevel"
// and "metis" — have a hierarchy to prepare; any other resolved engine is an
// error. Warm-started multilevel solves skip coarsening entirely, so front
// ends should not prepare hierarchies for warm traffic.
func PrepareHierarchy(g *Graph, opts Options) (*PreparedHierarchy, error) {
	c := opts.Canonical()
	ws, err := resolveWeights(g, c)
	if err != nil {
		return nil, err
	}
	switch c.Engine {
	case "multilevel":
		gdOpt, err := gdCoreOptions(g, c)
		if err != nil {
			return nil, err
		}
		prep := multilevel.BuildPrep(g, ws, multilevel.Options{
			GD:               gdOpt,
			CoarsenTo:        c.CoarsenTo,
			ClusterSize:      c.ClusterSize,
			RefineIterations: c.RefineIterations,
		})
		return &PreparedHierarchy{engine: c.Engine, ml: prep}, nil
	case "metis":
		prep := metis.BuildPrep(g, ws, metis.Options{UBFactor: 1 + c.Epsilon, Seed: c.Seed})
		return &PreparedHierarchy{engine: c.Engine, mt: prep}, nil
	}
	return nil, fmt.Errorf("mdbgp: engine %q builds no coarsening hierarchy; nothing to prepare", c.Engine)
}

// Engine returns the resolved engine name the hierarchy was built for — one
// component of a prep-cache key.
func (p *PreparedHierarchy) Engine() string { return p.engine }

// Bytes estimates the heap footprint of the hierarchy for cache byte
// accounting.
func (p *PreparedHierarchy) Bytes() int64 {
	if p.ml != nil {
		return p.ml.Bytes()
	}
	return p.mt.Bytes()
}
