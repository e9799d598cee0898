package server

import (
	"fmt"

	"mdbgp"
	"mdbgp/internal/obs"
	"mdbgp/internal/prep"
)

// Prep-cache wiring: the assignment-independent half of a solve (the
// coarsening hierarchy of the "multilevel" and "metis" engines) is retained
// per graph in a byte-budgeted LRU (internal/prep) and injected into later
// solves of the same graph.
//
// Keys are derived from what the ARTIFACT depends on, not from what the
// request happened to spell: hierarchy keys cover every input that shapes
// the hierarchy or that the engines' injection checks compare (seed,
// coarsening knobs, balance dimensions). Under-keying here could not produce
// a wrong answer — the engines re-verify every artifact and rebuild on
// mismatch — but it COULD quietly serve zero reuse or, worse for
// debuggability, bias which requests hit; the key-audit tests pin the
// derivation.

// preppedHierarchy pairs a prepared coarsening hierarchy with the exact graph
// instance it was built against. The graph cache canonicalizes same-content
// submissions onto one instance (graphCache.getOrPut), so pointer identity
// is the cheap and airtight "same graph" check; an entry whose graph
// instance was since evicted fails validation and is dropped as a miss.
type preppedHierarchy struct {
	g  *mdbgp.Graph
	ph *mdbgp.PreparedHierarchy
}

func (a *preppedHierarchy) Bytes() int64 { return a.ph.Bytes() }

// hierarchyPrepKey keys a coarsening hierarchy: the graph, the engine whose
// coarsener built it, and every option that shapes the hierarchy's content —
// the seed (both coarseners draw from seeded RNG streams), the coarsening
// knobs, and the balance dimensions (vertex weights ride the hierarchy's
// levels, and clustering consults them).
func hierarchyPrepKey(graphHash string, c mdbgp.Options, dimNames string) string {
	return fmt.Sprintf("%s:%s:hierarchy:%s:seed=%d|coarsen=%d|cluster=%d|dims=%s",
		mdbgp.EngineVersion, graphHash, c.Engine, c.Seed, c.CoarsenTo, c.ClusterSize, dimNames)
}

// attachPrep injects a cached coarsening hierarchy into a solve's options,
// building and retaining it on a miss. opts must already be canonical (it is
// j.opts, canonicalized at dispatch) and carry the job's resolved Weights.
// Everything here is best-effort amortization: any error or mismatch leaves
// opts unchanged and the solve rebuilds inline.
func (s *Server) attachPrep(g *mdbgp.Graph, hash, dimNames string, opts mdbgp.Options, parent *obs.Span) mdbgp.Options {
	if !s.preps.Enabled() || hash == "" {
		return opts
	}
	// Warm-started multilevel solves skip coarsening entirely, so preparing
	// a hierarchy for them would be pure waste.
	if opts.Engine != "metis" && (opts.Engine != "multilevel" || opts.WarmAssignment != nil) {
		return opts
	}
	sp := parent.Start("prep")
	key := hierarchyPrepKey(hash, opts, dimNames)
	art, hit := s.preps.Get(key, func(a prep.Artifact) bool {
		pa, ok := a.(*preppedHierarchy)
		return ok && pa.g == g
	})
	if hit {
		opts.PrepHierarchy = art.(*preppedHierarchy).ph
		sp.SetAttr("hierarchy", "hit")
	} else if ph, err := mdbgp.PrepareHierarchy(g, opts); err == nil {
		// The hierarchy embeds the solve's vertex weights; opts.Weights
		// holds exactly the vectors the solve will run with.
		opts.PrepHierarchy = ph
		s.preps.Put(key, &preppedHierarchy{g: g, ph: ph})
		sp.SetAttr("hierarchy", "build")
	}
	sp.SetAttr("cache_hit", hit)
	sp.End()
	return opts
}
