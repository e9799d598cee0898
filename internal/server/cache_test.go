package server

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"mdbgp"
)

func fakeResult(n int) *mdbgp.Result {
	return &mdbgp.Result{
		Assignment:   &mdbgp.Assignment{Parts: make([]int32, n), K: 2},
		EdgeLocality: 0.5,
		Imbalances:   []float64{0.01},
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", fakeResult(10))
	c.put("b", fakeResult(10))
	if ev := c.put("c", fakeResult(10)); ev != 1 {
		t.Fatalf("third insert evicted %d entries, want 1", ev)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("entry %q missing", k)
		}
	}
}

func TestCacheGetPromotes(t *testing.T) {
	c := newResultCache(2)
	c.put("a", fakeResult(10))
	c.put("b", fakeResult(10))
	c.get("a") // a is now most recent; b must be the eviction victim
	c.put("c", fakeResult(10))
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("stale entry survived")
	}
}

func TestCachePutRefreshes(t *testing.T) {
	c := newResultCache(4)
	c.put("a", fakeResult(10))
	bigger := fakeResult(100)
	if ev := c.put("a", bigger); ev != 0 {
		t.Fatalf("refresh evicted %d entries", ev)
	}
	got, ok := c.get("a")
	if !ok || got != bigger {
		t.Fatal("refresh did not replace the value")
	}
	entries, bytes := c.stats()
	if entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	if want := resultEntryBytes("a", bigger); bytes != want {
		t.Fatalf("bytes = %d, want %d", bytes, want)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	c.put("a", fakeResult(10))
	if _, ok := c.get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if entries, bytes := c.stats(); entries != 0 || bytes != 0 {
		t.Fatalf("disabled cache reports entries=%d bytes=%d", entries, bytes)
	}
}

func TestCacheBytesAccounting(t *testing.T) {
	c := newResultCache(8)
	var want int64
	for i := 0; i < 5; i++ {
		r := fakeResult(10 * (i + 1))
		key := fmt.Sprintf("k%d", i)
		want += resultEntryBytes(key, r)
		c.put(key, r)
	}
	if _, bytes := c.stats(); bytes != want {
		t.Fatalf("bytes = %d, want %d", bytes, want)
	}
	// Eviction releases the accounted bytes — key and overhead included.
	c2 := newResultCache(1)
	c2.put("a", fakeResult(1000))
	c2.put("b", fakeResult(10))
	if _, bytes := c2.stats(); bytes != resultEntryBytes("b", fakeResult(10)) {
		t.Fatalf("post-eviction bytes = %d", bytes)
	}
}

// recomputeResultBytes walks the live entries and recomputes the ground-truth
// byte total from scratch — what the incremental gauge must always equal.
func recomputeResultBytes(c *resultCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		total += resultEntryBytes(e.key, e.res)
	}
	return total
}

// TestCacheBytesHammer churns the cache with interleaved inserts, updates of
// varying payload sizes, and evictions, asserting after every operation that
// the incrementally-maintained byte gauge matches a recomputed ground truth
// and never needs the negative clamp.
func TestCacheBytesHammer(t *testing.T) {
	c := newResultCache(16)
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 5000; op++ {
		key := fmt.Sprintf("key-%d", rng.Intn(48)) // collisions force the update path
		c.put(key, fakeResult(rng.Intn(2000)))
		if rng.Intn(3) == 0 {
			c.get(fmt.Sprintf("key-%d", rng.Intn(48))) // promotions reshuffle eviction order
		}
		if got, want := func() int64 { _, b := c.stats(); return b }(), recomputeResultBytes(c); got != want {
			t.Fatalf("op %d: bytes gauge = %d, ground truth = %d (drift %d)", op, got, want, got-want)
		}
	}
	if entries, _ := c.stats(); entries != 16 {
		t.Fatalf("entries = %d, want capacity 16", entries)
	}
	if c.clampCount() != 0 {
		t.Fatalf("correct accounting still clamped %d times", c.clampCount())
	}
}

// TestCacheBytesClamp corrupts an entry's accounted size to force the gauge
// negative and asserts the clamp fires: the gauge floors at zero and the
// error counter records the event instead of the gauge silently underflowing.
func TestCacheBytesClamp(t *testing.T) {
	c := newResultCache(4)
	c.put("a", fakeResult(10))
	c.mu.Lock()
	c.items["a"].Value.(*cacheEntry).bytes += 1 << 40 // simulate a mischarge
	c.mu.Unlock()
	c.put("a", fakeResult(10)) // update path credits the inflated size
	if _, bytes := c.stats(); bytes != 0 {
		t.Fatalf("bytes = %d, want clamp at 0", bytes)
	}
	if c.clampCount() != 1 {
		t.Fatalf("clamps = %d, want 1", c.clampCount())
	}

	g := newGraphCache(1)
	g.getOrPut("h1", mdbgp.FromEdges(2, []mdbgp.Edge{{U: 0, V: 1}}))
	g.mu.Lock()
	g.items["h1"].Value.(*graphEntry).bytes += 1 << 40
	g.mu.Unlock()
	g.getOrPut("h2", mdbgp.FromEdges(2, []mdbgp.Edge{{U: 0, V: 1}})) // evicts the mischarged entry
	if _, bytes := g.stats(); bytes != 0 {
		t.Fatalf("graph bytes = %d, want clamp at 0", bytes)
	}
	if g.clampCount() != 1 {
		t.Fatalf("graph clamps = %d, want 1", g.clampCount())
	}
}

// weightBits flattens balance vectors to their float64 bit patterns.
func weightBits(ws [][]float64) [][]uint64 {
	out := make([][]uint64, len(ws))
	for i, w := range ws {
		out[i] = make([]uint64, len(w))
		for j, x := range w {
			out[i][j] = math.Float64bits(x)
		}
	}
	return out
}

// TestGraphCacheWeights: retained vectors are bit for bit StandardWeights',
// shared between solves of the retained instance and charged to its entry;
// vertex and degree vectors are rebuilt per call, and nothing is stored for
// another instance under the same hash or in a disabled cache.
func TestGraphCacheWeights(t *testing.T) {
	gen := func() *mdbgp.Graph {
		g, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{N: 300, Communities: 3, AvgDegree: 6, Seed: 5})
		return g
	}
	g, twin := gen(), gen() // same content, distinct instances
	hash := g.HashString()
	dims := []mdbgp.Weight{mdbgp.WeightVertices, mdbgp.WeightEdges, mdbgp.WeightNeighborDegrees, mdbgp.WeightPageRank}
	ref, err := mdbgp.StandardWeights(g, dims...)
	if err != nil {
		t.Fatal(err)
	}
	c := newGraphCache(4)
	c.getOrPut(hash, g)
	ws, cached, err := c.weights(hash, g, dims)
	if err != nil || cached {
		t.Fatalf("first weights: cached=%v err=%v, want a computed miss", cached, err)
	}
	if !reflect.DeepEqual(weightBits(ws), weightBits(ref)) {
		t.Fatal("weights differ from StandardWeights")
	}
	want := graphEntryBytes(hash, g) + 2*vecBytes(ref[0])
	if _, b := c.stats(); b != want {
		t.Fatalf("bytes = %d, want %d (graph plus two retained vectors)", b, want)
	}
	again, cached, _ := c.weights(hash, g, dims)
	if !cached || &again[2][0] != &ws[2][0] || &again[3][0] != &ws[3][0] {
		t.Fatal("repeat weights did not share the retained vectors")
	}
	if &again[0][0] == &ws[0][0] || &again[1][0] == &ws[1][0] {
		t.Fatal("vertex/degree vectors were retained")
	}
	if !reflect.DeepEqual(weightBits(again), weightBits(ref)) {
		t.Fatal("retained weights differ from StandardWeights")
	}
	if _, cached, _ := c.weights(hash, g, dims[:2]); cached {
		t.Fatal("vertices,edges reported cached with nothing retained for them")
	}
	other, cached, _ := c.weights(hash, twin, dims)
	if cached || &other[3][0] == &ws[3][0] {
		t.Fatal("another instance under the same hash was served the retained vectors")
	}
	if _, b := c.stats(); b != want {
		t.Fatalf("another instance's vectors were charged: bytes = %d, want %d", b, want)
	}

	d := newGraphCache(-1)
	d.getOrPut(hash, g)
	d.weights(hash, g, dims)
	if _, cached, _ := d.weights(hash, g, dims); cached {
		t.Fatal("disabled graph cache retained vectors")
	}
	if n, b := d.stats(); n != 0 || b != 0 {
		t.Fatalf("disabled graph cache reports %d entries / %d bytes", n, b)
	}
}

// recomputeGraphBytes walks the live entries and recomputes the ground-truth
// byte total — CSR, key, bookkeeping, every retained vector and every digest
// record — from scratch. It also checks that the digest index and the
// entries agree: every indexed digest points at a live entry holding it, and
// every digest an entry holds is indexed.
func recomputeGraphBytes(t *testing.T, c *graphCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	recorded := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*graphEntry)
		total += graphEntryBytes(e.key, e.g)
		for d, v := range e.vecs {
			if !retainedDim(d) || len(v) != e.g.N() {
				t.Fatalf("entry %s retains a %d-entry %v vector for an %d-vertex graph", e.key, len(v), d, e.g.N())
			}
			total += vecBytes(v)
		}
		if e.body != (bodyDigest{}) {
			total += bodyRecordBytes
			recorded++
			if c.bodies[e.body] != el {
				t.Fatalf("entry %s holds a digest the index does not point at it", e.key)
			}
		}
	}
	for d, el := range c.bodies {
		if e := el.Value.(*graphEntry); c.items[e.key] != el || e.body != d {
			t.Fatalf("the digest index points at an evicted or replaced entry (%s)", e.key)
		}
	}
	if len(c.bodies) != recorded {
		t.Fatalf("digest index holds %d records, entries hold %d", len(c.bodies), recorded)
	}
	return total
}

// TestGraphCacheBytesHammer churns the graph cache with random getOrPut,
// get, weights, recordBody and lookupBody calls — two instances per hash, so
// vectors computed for a replaced instance must not land on its successor,
// and two upload digests per hash — and evictions, asserting after every
// operation that the byte gauge equals a recomputed ground truth (which also
// checks that the digest index never points at an evicted entry), that
// every returned vector is StandardWeights' bits, and that a digest lookup
// returns only the instance the digest was recorded with. Then it checks
// that an evicted entry's vectors are released.
func TestGraphCacheBytesHammer(t *testing.T) {
	const graphs = 12
	type slot struct {
		inst   [2]*mdbgp.Graph
		ref    map[mdbgp.Weight][]uint64
		bodies [2]bodyDigest
	}
	all := []mdbgp.Weight{mdbgp.WeightVertices, mdbgp.WeightEdges, mdbgp.WeightNeighborDegrees, mdbgp.WeightPageRank}
	slots := make([]slot, graphs)
	for i := range slots {
		cfg := mdbgp.SocialGraphConfig{N: 20 + 15*i, Communities: 2, AvgDegree: 4, Seed: int64(i + 1)}
		for j := range slots[i].inst {
			slots[i].inst[j], _ = mdbgp.GenerateSocialGraph(cfg)
		}
		ws, err := mdbgp.StandardWeights(slots[i].inst[0], all...)
		if err != nil {
			t.Fatal(err)
		}
		slots[i].ref = make(map[mdbgp.Weight][]uint64)
		for d, b := range weightBits(ws) {
			slots[i].ref[all[d]] = b
		}
		for j := range slots[i].bodies {
			slots[i].bodies[j] = digestUpload(codecText, []byte(fmt.Sprintf("body %d of graph %d", j, i)))
		}
	}
	recordedWith := make(map[bodyDigest]*mdbgp.Graph)
	dimSets := [][]mdbgp.Weight{
		{mdbgp.WeightVertices, mdbgp.WeightEdges},
		{mdbgp.WeightVertices, mdbgp.WeightEdges, mdbgp.WeightPageRank},
		{mdbgp.WeightNeighborDegrees},
		{mdbgp.WeightPageRank, mdbgp.WeightNeighborDegrees},
	}
	c := newGraphCache(5)
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 4000; op++ {
		i := rng.Intn(graphs)
		hash, g := fmt.Sprintf("h%d", i), slots[i].inst[rng.Intn(2)]
		j := rng.Intn(2)
		d, other := slots[i].bodies[j], slots[i].bodies[1-j]
		switch rng.Intn(5) {
		case 0:
			c.getOrPut(hash, g)
		case 1:
			c.get(hash)
		case 2:
			c.mu.Lock()
			holds := c.entryFor(hash, g) != nil
			c.mu.Unlock()
			c.recordBody(hash, g, d)
			if !holds {
				break
			}
			recordedWith[d] = g
			if h, got, ok := c.lookupBody(d); !ok || h != hash || got != g {
				t.Fatalf("op %d: digest recorded on %s is not found there", op, hash)
			}
			if _, _, ok := c.lookupBody(other); ok {
				t.Fatalf("op %d: %s still answers for the digest it held before", op, hash)
			}
		case 3:
			if h, got, ok := c.lookupBody(d); ok && (h != hash || got != recordedWith[d]) {
				t.Fatalf("op %d: digest lookup returned %s's other instance or another graph", op, hash)
			}
		default:
			dims := dimSets[rng.Intn(len(dimSets))]
			ws, _, err := c.weights(hash, g, dims)
			if err != nil {
				t.Fatal(err)
			}
			for d, b := range weightBits(ws) {
				if !reflect.DeepEqual(b, slots[i].ref[dims[d]]) {
					t.Fatalf("op %d: %v vector of %s differs from StandardWeights", op, dims[d], hash)
				}
			}
		}
		if _, got := c.stats(); got != recomputeGraphBytes(t, c) {
			t.Fatalf("op %d: bytes gauge = %d, ground truth = %d", op, got, recomputeGraphBytes(t, c))
		}
	}
	if c.clampCount() != 0 {
		t.Fatalf("correct accounting still clamped %d times", c.clampCount())
	}

	// Eviction releases an entry's vectors together with its graph.
	e := newGraphCache(1)
	big, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{N: 4000, Communities: 4, AvgDegree: 6, Seed: 9})
	e.getOrPut("big", big)
	pr := func() weak.Pointer[float64] {
		ws, _, err := e.weights("big", big, []mdbgp.Weight{mdbgp.WeightPageRank})
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(&ws[0][0])
	}()
	e.getOrPut("h0", slots[0].inst[0]) // evicts "big"
	if _, got := e.stats(); got != graphEntryBytes("h0", slots[0].inst[0]) {
		t.Fatalf("after eviction bytes = %d, want only the surviving entry", got)
	}
	runtime.GC()
	if pr.Value() != nil {
		t.Fatal("an evicted entry's PageRank vector is still reachable")
	}
	runtime.KeepAlive(big)
}
