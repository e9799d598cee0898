package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strconv"

	"mdbgp"
	"mdbgp/internal/partition"
)

// balanceEps is the ε at which balance_violation is judged: the paper's and
// the daemon's default.
const balanceEps = 0.05

// checker verifies completed requests after the timed window. It remembers
// the first assignment seen under each result key: any later answer for the
// same key, cache hit or re-solve, must be byte-identical to it.
type checker struct {
	digests map[string][32]byte
	weights map[*mdbgp.Graph][][]float64
}

func newChecker() *checker {
	return &checker{digests: make(map[string][32]byte), weights: make(map[*mdbgp.Graph][][]float64)}
}

// check verifies one outcome against the graph its request solved and
// reports whether the partition is ε-balanced on every requested dimension.
func (c *checker) check(o *outcome) (balanced bool, err error) {
	v := o.op.ver
	if h := v.graphHash(); o.job.GraphHash != h {
		return false, fmt.Errorf("job %s solved graph %.12s, want %.12s", o.job.ID, o.job.GraphHash, h)
	}
	res := o.job.Result
	if res.K != o.op.k {
		return false, fmt.Errorf("job %s: k = %d, want %d", o.job.ID, res.K, o.op.k)
	}
	asgn, err := parseAssignment(o.assignment, v.g.N(), o.op.k)
	if err != nil {
		return false, fmt.Errorf("job %s: %w", o.job.ID, err)
	}
	cut := cutEdges(v.g, asgn.Parts)
	if cut != res.CutEdges {
		return false, fmt.Errorf("job %s: reported %d cut edges, assignment cuts %d", o.job.ID, res.CutEdges, cut)
	}
	if loc := 1 - float64(cut)/float64(v.g.M()); math.Abs(loc-res.EdgeLocality) > 1e-12 {
		return false, fmt.Errorf("job %s: reported locality %v, assignment gives %v", o.job.ID, res.EdgeLocality, loc)
	}
	ws, err := c.weightsOf(v.g, o.op.dims)
	if err != nil {
		return false, err
	}
	if len(res.Imbalances) != len(ws) {
		return false, fmt.Errorf("job %s: %d imbalances for %d dims", o.job.ID, len(res.Imbalances), len(ws))
	}
	for j, w := range ws {
		if got := partition.Imbalance(asgn, w); math.Abs(got-res.Imbalances[j]) > 1e-9 {
			return false, fmt.Errorf("job %s: dim %d imbalance reported %v, assignment gives %v", o.job.ID, j, res.Imbalances[j], got)
		}
	}
	sum := sha256.Sum256(o.assignment)
	if first, ok := c.digests[o.job.Key]; !ok {
		c.digests[o.job.Key] = sum
	} else if first != sum {
		return false, fmt.Errorf("job %s (cache %s): assignment differs from the earlier answer for key %.24s", o.job.ID, o.job.Cache, o.job.Key)
	}
	return mdbgp.IsBalanced(asgn, ws, balanceEps), nil
}

func (c *checker) weightsOf(g *mdbgp.Graph, dims []mdbgp.Weight) ([][]float64, error) {
	if ws, ok := c.weights[g]; ok {
		return ws, nil
	}
	ws, err := mdbgp.StandardWeights(g, dims...)
	if err != nil {
		return nil, err
	}
	c.weights[g] = ws
	return ws, nil
}

// parseAssignment reads "vertex part" lines: exactly n of them, vertex i on
// line i, every part in [0, k).
func parseAssignment(b []byte, n, k int) (*mdbgp.Assignment, error) {
	a := &mdbgp.Assignment{K: k, Parts: make([]int32, 0, n)}
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		vs, ps, ok := bytes.Cut(line, []byte{' '})
		if !ok {
			return nil, fmt.Errorf("assignment line %d: %q is not \"vertex part\"", len(a.Parts)+1, line)
		}
		v, err1 := strconv.Atoi(string(vs))
		p, err2 := strconv.Atoi(string(ps))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("assignment line %d: %q is not \"vertex part\"", len(a.Parts)+1, line)
		}
		if v != len(a.Parts) {
			return nil, fmt.Errorf("assignment line %d names vertex %d", len(a.Parts)+1, v)
		}
		if p < 0 || p >= k {
			return nil, fmt.Errorf("vertex %d in part %d, outside [0, %d)", v, p, k)
		}
		a.Parts = append(a.Parts, int32(p))
	}
	if len(a.Parts) != n {
		return nil, fmt.Errorf("assignment has %d vertices, graph has %d", len(a.Parts), n)
	}
	return a, nil
}

// cutEdges counts edges whose endpoints lie in different parts.
func cutEdges(g *mdbgp.Graph, parts []int32) int64 {
	cut := int64(0)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u && parts[u] != parts[v] {
				cut++
			}
		}
	}
	return cut
}
