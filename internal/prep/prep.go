// Package prep is a byte-budgeted LRU over prepared solve artifacts — the
// assignment-independent preprocessing (today: coarsening hierarchies) that
// depends only on a graph's structure and a handful of options, and is
// therefore reusable across every solve of the same graph.
//
// The cache is deliberately dumb about what it stores: artifacts are opaque
// values with a byte size, and keys are caller-composed strings (the daemon
// uses engine-version + graph hash + artifact kind + parameters). Correctness
// never depends on the cache — the engines re-verify every injected artifact
// against the graph and options actually being solved, so a wrong or stale
// entry degrades to an inline rebuild, never to a wrong answer. What the
// cache owes its callers is honest accounting: the byte gauge tracks what is
// retained, eviction is strictly LRU within the budget, and a gauge that goes
// negative (an accounting bug) is clamped and counted rather than silently
// rendered as a huge unsigned value.
package prep

import (
	"container/list"
	"sync"
)

// Artifact is one cached preprocessing product. Implementations must be
// immutable once cached — entries are shared by reference across concurrent
// solves — and Bytes must be stable for the artifact's lifetime, since the
// size charged at insert is the size credited at eviction.
type Artifact interface {
	// Bytes estimates the artifact's retained heap footprint.
	Bytes() int64
}

// Cache is a thread-safe LRU bounded by a byte budget rather than an entry
// count: artifacts range from a few-KB hierarchy for a toy graph to a
// hundreds-of-MB hierarchy for a large one, so counting entries would make
// the bound meaningless. A nil *Cache is valid and behaves as disabled.
type Cache struct {
	mu     sync.Mutex
	budget int64      // max retained bytes; <= 0 disables the cache
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	bytes  int64 // approximate retained size (payloads + keys + bookkeeping)
	clamps int64 // times the byte gauge went negative and was clamped

	hits, misses, evictions int64
}

type entry struct {
	key   string
	art   Artifact
	bytes int64
}

// entryOverhead approximates the per-entry bookkeeping retained alongside a
// payload — the entry struct, its list element, and the map bucket share —
// matching the serving layer's other caches so the byte gauges are comparable.
const entryOverhead = 128

// New creates a cache holding at most budget bytes. A budget <= 0 disables
// the cache: Get always misses, Put is a no-op.
func New(budget int64) *Cache {
	return &Cache{budget: budget, ll: list.New(), items: make(map[string]*list.Element)}
}

// Enabled reports whether the cache stores anything at all.
func (c *Cache) Enabled() bool { return c != nil && c.budget > 0 }

// Get returns the artifact cached under key, promoting it to most recently
// used. valid, when non-nil, re-checks the entry against the caller's current
// world — the daemon passes "was this built for exactly the graph instance I
// am about to solve?" — and an entry that fails is removed and reported as a
// miss: a stale artifact is not a hit that happens to be useless, it is a
// miss that was occupying budget.
func (c *Cache) Get(key string, valid func(Artifact) bool) (Artifact, bool) {
	if !c.Enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*entry)
	if valid != nil && !valid(e.art) {
		c.removeLocked(el, e)
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return e.art, true
}

// Put inserts or replaces the artifact under key, evicting least-recently
// used entries until the budget holds, and returns how many entries were
// evicted. An artifact larger than the entire budget is not cached: it would
// evict everything else and still leave the gauge over budget, so the caller
// keeps its freshly built artifact for this one solve and the cache keeps its
// working set. A replaced key's previous entry is dropped even in that case —
// the caller just told us it is stale.
func (c *Cache) Put(key string, art Artifact) int {
	if !c.Enabled() {
		return 0
	}
	nb := int64(len(key)) + entryOverhead + art.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if nb > c.budget {
		if el, ok := c.items[key]; ok {
			c.removeLocked(el, el.Value.(*entry))
			clampBytes(&c.bytes, &c.clamps)
		}
		return 0
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += nb - e.bytes
		e.art, e.bytes = art, nb
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, art: art, bytes: nb})
		c.bytes += nb
	}
	evicted := 0
	// The just-inserted entry sits at the front and nb <= budget, so the
	// loop always terminates before evicting it.
	for c.bytes > c.budget && c.ll.Len() > 1 {
		back := c.ll.Back()
		c.removeLocked(back, back.Value.(*entry))
		evicted++
	}
	clampBytes(&c.bytes, &c.clamps)
	c.evictions += int64(evicted)
	return evicted
}

// removeLocked unlinks one entry and credits its bytes. Callers hold mu.
func (c *Cache) removeLocked(el *list.Element, e *entry) {
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
}

// clampBytes resets a negative byte gauge to zero, counting the event: the
// gauge is a sum of per-entry deltas, so a negative value means an entry was
// charged less than it was later credited — an accounting bug worth a
// counter, not a silently wrapped dashboard gauge. Callers hold mu.
func clampBytes(bytes, clamps *int64) {
	if *bytes < 0 {
		*bytes = 0
		*clamps++
	}
}

// Stats is a consistent snapshot of the cache's counters and gauges.
type Stats struct {
	Entries   int
	Bytes     int64
	Budget    int64
	Hits      int64
	Misses    int64
	Evictions int64
	Clamps    int64
}

// Stats snapshots every counter and gauge under one lock acquisition, so a
// metrics scrape renders an internally consistent view. Nil-safe.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries: c.ll.Len(), Bytes: c.bytes, Budget: c.budget,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Clamps: c.clamps,
	}
}
