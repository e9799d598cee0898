package server

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"mdbgp"
)

// resultCache is a content-addressed LRU over completed partition results.
// Keys are graph-hash + canonical-options fingerprints (see (*Server).cacheKey),
// so any byte stream that canonicalizes to the same graph and the same
// solver configuration — reordered edge lists, duplicate edges, explicit
// defaults — addresses the same entry. Cached *mdbgp.Result values are
// shared across jobs and must be treated as immutable.
type resultCache struct {
	mu       sync.Mutex
	capacity int        // max entries; <= 0 disables the cache
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	bytes    int64 // approximate retained size (payload + key + bookkeeping)
	clamps   int64 // times the gauge went negative and was clamped (accounting bug)
}

type cacheEntry struct {
	key   string
	res   *mdbgp.Result
	bytes int64
}

// entryOverhead approximates the per-entry bookkeeping retained alongside a
// payload: the entry struct, its list element, and the map bucket share.
// The key string's bytes are counted separately — cache keys here are
// engine-version + graph-hash + fingerprint strings of ~140 bytes, which at
// small payloads (tiny graphs, delta metadata) rivals the payload itself, so
// ignoring them made the mdbgpd_*cache_bytes gauges drift far below the real
// footprint.
const entryOverhead = 128

// clampBytes resets a negative byte gauge to zero, counting the event: the
// gauge is a sum of per-entry deltas, so a negative value means an
// accounting bug (an entry charged less than it was later credited), and a
// silently negative gauge would render as a huge unsigned value in dashboards
// and hide the bug. Callers hold mu.
func clampBytes(bytes, clamps *int64) {
	if *bytes < 0 {
		*bytes = 0
		*clamps++
	}
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached result for key, promoting it to most recent.
func (c *resultCache) get(key string) (*mdbgp.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put inserts or refreshes key and returns how many entries were evicted.
func (c *resultCache) put(key string, res *mdbgp.Result) int {
	if c.capacity <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		nb := resultEntryBytes(key, res)
		c.bytes += nb - e.bytes
		clampBytes(&c.bytes, &c.clamps)
		e.res, e.bytes = res, nb
		return 0
	}
	e := &cacheEntry{key: key, res: res, bytes: resultEntryBytes(key, res)}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += e.bytes
	evicted := 0
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		old := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, old.key)
		c.bytes -= old.bytes
		evicted++
	}
	clampBytes(&c.bytes, &c.clamps)
	return evicted
}

func (c *resultCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// clampCount reports how often the byte gauge had to be clamped at zero.
func (c *resultCache) clampCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clamps
}

// resultEntryBytes is the full accounted size of one cache entry: the result
// payload plus the key string and the per-entry bookkeeping.
func resultEntryBytes(key string, res *mdbgp.Result) int64 {
	return int64(len(key)) + entryOverhead + resultBytes(res)
}

// resultBytes approximates the retained size of a result payload: the
// assignment dominates (4 bytes per vertex), plus the fixed-size quality
// fields.
func resultBytes(res *mdbgp.Result) int64 {
	b := int64(64)
	if res.Assignment != nil {
		b += int64(len(res.Assignment.Parts)) * 4
	}
	b += int64(len(res.Imbalances)) * 8
	return b
}

// graphCache is a content-addressed LRU over solved base graphs, keyed by
// canonical CSR hash. Delta submissions (?base=...) materialize their target
// graph by applying the delta to an entry here; evicting an entry therefore
// degrades the affected deltas to "resubmit the full graph", which is why
// the cache is bounded separately from (and typically smaller than) the
// result cache. Stored graphs are immutable and shared across requests.
//
// An entry also keeps its graph's edge-traversing balance vectors (see
// retainedDim) once a solve has computed them, charged to the entry's bytes
// so the gauge and eviction release them together with the graph.
//
// An entry may also hold the digest of the last upload body that produced
// it (see recordBody), indexed so that a byte-identical re-upload finds the
// retained graph and its hash without decoding, validating or hashing the
// body again.
type graphCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[string]*list.Element
	bodies   map[bodyDigest]*list.Element // upload digest -> entry that holds it
	bytes    int64
	clamps   int64
}

type graphEntry struct {
	key   string
	g     *mdbgp.Graph
	bytes int64
	// vecs holds the retained balance vectors of g by dimension; shared
	// read-only with every solve of g.
	vecs map[mdbgp.Weight][]float64
	// body is the digest of the last upload body that produced g, or zero
	// when none is recorded; non-zero exactly when bodies indexes it.
	body bodyDigest
}

// bodyDigest is the SHA-256 of an upload's codec tag and body bytes (see
// digestUpload). The zero value means "no digest".
type bodyDigest [sha256.Size]byte

// bodyRecordBytes is what recording a digest adds to an entry's accounted
// size: the index key, its element pointer and the map bucket share (the
// entry's own digest field is inside entryOverhead).
const bodyRecordBytes = sha256.Size + 32

func newGraphCache(capacity int) *graphCache {
	return &graphCache{
		capacity: capacity, ll: list.New(),
		items:  make(map[string]*list.Element),
		bodies: make(map[bodyDigest]*list.Element),
	}
}

// getOrPut returns the canonical retained instance of the graph under hash,
// inserting g when the hash is new, plus how many entries were evicted. Every
// same-content submission is handed back the SAME *mdbgp.Graph — beyond
// deduplicating memory, pointer identity is what the prep cache's artifacts
// and the retained balance vectors are validated against, so
// canonicalization is what lets a repeat submission (or a zero-churn delta)
// reuse them at all. With the cache disabled each submission keeps its own
// instance and nothing is reused.
func (c *graphCache) getOrPut(hash string, g *mdbgp.Graph) (*mdbgp.Graph, int) {
	if c.capacity <= 0 {
		return g, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[hash]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*graphEntry).g, 0
	}
	e := &graphEntry{key: hash, g: g, bytes: graphEntryBytes(hash, g)}
	c.items[hash] = c.ll.PushFront(e)
	c.bytes += e.bytes
	evicted := 0
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		old := back.Value.(*graphEntry)
		c.ll.Remove(back)
		delete(c.items, old.key)
		if old.body != (bodyDigest{}) {
			delete(c.bodies, old.body)
		}
		c.bytes -= old.bytes
		evicted++
	}
	clampBytes(&c.bytes, &c.clamps)
	return g, evicted
}

// lookupBody returns the graph and hash of the entry holding upload digest
// d, promoting it to most recent.
func (c *graphCache) lookupBody(d bodyDigest) (hash string, g *mdbgp.Graph, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bodies[d]
	if !ok {
		return "", nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*graphEntry)
	return e.key, e.g, true
}

// recordBody records d as the digest of the upload that produced g under
// hash, replacing the entry's previous digest. Callers record only a body
// that passed every ingest check and whose hash the server computed itself:
// a later lookupBody hands g and hash to a byte-identical upload without
// checking it again. Because one body always yields one graph and hash, no
// two entries can hold the same digest. Nothing is recorded unless the entry
// under hash holds this instance of g.
func (c *graphCache) recordBody(hash string, g *mdbgp.Graph, d bodyDigest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entryFor(hash, g)
	if e == nil || e.body == d {
		return
	}
	if e.body != (bodyDigest{}) {
		delete(c.bodies, e.body)
	} else {
		e.bytes += bodyRecordBytes
		c.bytes += bodyRecordBytes
	}
	e.body = d
	c.bodies[d] = c.items[hash]
}

// get returns the cached graph for the hash, promoting it to most recent.
func (c *graphCache) get(hash string) (*mdbgp.Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[hash]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*graphEntry).g, true
}

// retainedDim reports whether the graph cache keeps a dimension's vector on
// the graph's entry: the edge-traversing ones (neighbor-degree sums, and
// PageRank at 20 passes over the edges) cost far more to rebuild than their
// 8 bytes per vertex cost to keep. Vertex and degree vectors take one O(n)
// pass and are rebuilt per solve.
func retainedDim(d mdbgp.Weight) bool {
	return d == mdbgp.WeightNeighborDegrees || d == mdbgp.WeightPageRank
}

// weights materializes g's balance vectors for dims, in order, bit for bit
// what mdbgp.StandardWeights(g, dims...) returns. Retained dimensions are
// read from the entry under hash when that entry still holds this instance
// of g; missing ones are computed outside the lock and stored only if the
// entry still holds this instance afterwards, so a vector never lands on (or
// outlives the eviction of) any other graph. cached reports that there was
// a retained dimension and every retained vector came from the entry.
// Retained vectors are shared by every solve of g and must not be written.
func (c *graphCache) weights(hash string, g *mdbgp.Graph, dims []mdbgp.Weight) (ws [][]float64, cached bool, err error) {
	ws = make([][]float64, len(dims))
	c.mu.Lock()
	if e := c.entryFor(hash, g); e != nil {
		for i, d := range dims {
			ws[i] = e.vecs[d]
		}
	}
	c.mu.Unlock()
	retained, computed := false, false
	for i, d := range dims {
		retained = retained || retainedDim(d)
		if ws[i] != nil {
			continue
		}
		v, err := mdbgp.StandardWeights(g, d)
		if err != nil {
			return nil, false, err
		}
		ws[i] = v[0]
		computed = computed || retainedDim(d)
	}
	if !computed {
		return ws, retained, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entryFor(hash, g)
	if e == nil {
		return ws, false, nil
	}
	for i, d := range dims {
		if !retainedDim(d) || e.vecs[d] != nil {
			continue
		}
		if e.vecs == nil {
			e.vecs = make(map[mdbgp.Weight][]float64)
		}
		e.vecs[d] = ws[i]
		nb := vecBytes(ws[i])
		e.bytes += nb
		c.bytes += nb
	}
	return ws, false, nil
}

// entryFor returns the entry under hash if it holds exactly this instance of
// g, else nil. Callers hold mu.
func (c *graphCache) entryFor(hash string, g *mdbgp.Graph) *graphEntry {
	if el, ok := c.items[hash]; ok {
		if e := el.Value.(*graphEntry); e.g == g {
			return e
		}
	}
	return nil
}

func (c *graphCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// clampCount reports how often the byte gauge had to be clamped at zero.
func (c *graphCache) clampCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clamps
}

// graphEntryBytes is the accounted size of one graph-cache entry before any
// balance vector is retained on it: the CSR payload plus the hash key and
// the per-entry bookkeeping.
func graphEntryBytes(hash string, g *mdbgp.Graph) int64 {
	return int64(len(hash)) + entryOverhead + graphBytes(g)
}

// graphBytes approximates a CSR graph's retained size: 8 bytes per offset,
// 4 per directed adjacency entry.
func graphBytes(g *mdbgp.Graph) int64 {
	return 8*int64(g.N()+1) + 4*g.DirectedSize() + 64
}

// vecBytes is the retained size of one balance vector.
func vecBytes(v []float64) int64 {
	return 8 * int64(len(v))
}
