package pipeline

import (
	"container/list"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ricsa/internal/cost"
)

// This file adds the memoization layer the multi-session service sits on:
// under steady network conditions every session monitoring the same dataset
// class asks the CM for the same mapping, and under adaptive reconfiguration
// a session re-asks whenever a frame misses its predicted delay. Both are
// exact repeats of an earlier (graph, pipeline, src, dst) instance, so the
// CM keeps an LRU of solved instances keyed by content fingerprints instead
// of re-running the dynamic program.

// The fingerprints hash whole 64-bit words (an FNV-1a variant over words
// with a final avalanche) rather than bytes: a cache lookup re-hashes the
// graph on every call, so fingerprinting must stay an order of magnitude
// cheaper than the dynamic program it short-circuits.

const (
	fpOffset = 0xcbf29ce484222325
	fpPrime  = 0x00000100000001b3
)

func fpMix(h, x uint64) uint64 { return (h ^ x) * fpPrime }

func fpFloat(h uint64, x float64) uint64 { return fpMix(h, math.Float64bits(x)) }

func fpString(h uint64, s string) uint64 {
	// Fold the string into words of 8 bytes, then mix its length so "ab"
	// followed by "c" differs from "a" followed by "bc".
	var w uint64
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if i%8 == 7 {
			h = fpMix(h, w)
			w = 0
		}
	}
	h = fpMix(h, w)
	return fpMix(h, uint64(len(s)))
}

// fpFinal applies a strong avalanche (splitmix64 finalizer) so near-equal
// inputs do not yield near-equal fingerprints.
func fpFinal(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// NextGraphRev returns a process-unique revision token for Graph.Rev.
// Measurement layers stamp each freshly probed graph with one so that
// fingerprinting — and therefore every cache lookup — skips the full
// content hash.
func NextGraphRev() uint64 { return graphRev.Add(1) }

var graphRev atomic.Uint64

// Fingerprint returns a 64-bit digest of the graph. A Rev-stamped graph is
// digested from its revision token and dimensions (O(1) in the edge
// count); an unstamped graph is digested from its full content — node
// capabilities and every directed edge's measured bandwidth and delay —
// so any re-measurement that changes an effective bandwidth changes the
// fingerprint, and cached mappings computed for stale network conditions
// can never be returned for fresh ones.
func (g *Graph) Fingerprint() uint64 {
	h := uint64(fpOffset)
	if g.Rev != 0 {
		h = fpMix(h, g.Rev)
		h = fpMix(h, uint64(len(g.Nodes)))
		// The transport mode reprices every edge without touching the
		// measurements, so it must be part of even the O(1) digest — a mode
		// flip between probes would otherwise collide with the stale entry.
		h = fpMix(h, uint64(g.Transport))
		return fpFinal(h)
	}
	h = fpMix(h, uint64(len(g.Nodes)))
	h = fpMix(h, uint64(g.Transport))
	for _, nd := range g.Nodes {
		h = fpString(h, nd.Name)
		h = fpFloat(h, nd.Power)
		flags := uint64(0)
		if nd.HasGPU {
			flags = 1
		}
		h = fpMix(h, flags<<32|uint64(uint32(nd.Workers)))
		h = fpFloat(h, nd.ScatterBW)
		h = fpFloat(h, nd.ParallelOverhead)
		h = fpFloat(h, nd.TrianglesPerSec)
	}
	for from, adj := range g.Adj {
		h = fpMix(h, uint64(from)<<32|uint64(uint32(len(adj))))
		for _, e := range adj {
			h = fpMix(h, uint64(e.To))
			h = fpFloat(h, e.Bandwidth)
			h = fpFloat(h, e.Delay)
			h = fpFloat(h, e.Loss)
			h = fpFloat(h, e.LossConf)
		}
	}
	return fpFinal(h)
}

// Fingerprint returns a 64-bit digest of the pipeline's content: source
// size plus every module's cost, output size, and capability flags.
// Steering that changes module costs (a new isovalue changes the extraction
// model) changes the fingerprint.
func (p *Pipeline) Fingerprint() uint64 {
	h := uint64(fpOffset)
	h = fpFloat(h, p.SourceBytes)
	for _, m := range p.Modules {
		h = fpString(h, m.Name)
		h = fpFloat(h, m.RefTime)
		h = fpFloat(h, m.OutBytes)
		flags := uint64(0)
		if m.NeedsGPU {
			flags |= 1
		}
		if m.Parallelizable {
			flags |= 2
		}
		h = fpMix(h, flags)
	}
	return fpFinal(h)
}

// Clone deep-copies a VRT so cached results can be handed to concurrent
// callers without aliasing.
func (v *VRT) Clone() *VRT {
	if v == nil {
		return nil
	}
	return &VRT{Delay: v.Delay, Groups: cloneGroups(v.Groups)}
}

// CacheKey identifies one optimization instance. Single-destination
// instances key on Dst; multi-destination (tree) instances key on Dsts, an
// order-insensitive fingerprint of the destination set, with Dst = -1 so
// the two families can never collide. Tier is the encoding-ladder budget a
// tree was solved under (TierFull for single-destination instances and
// untiered trees): the same viewer set optimized under a different tier
// budget yields a different tree, so the budget is part of the key.
type CacheKey struct {
	Graph, Pipe uint64
	Src, Dst    int
	Dsts        uint64
	Tier        cost.Tier
}

// dstSetFingerprint digests a destination set order-insensitively: two
// viewer sets with the same hosts in different join orders share one cached
// tree.
func dstSetFingerprint(dsts []int) uint64 {
	sorted := append([]int(nil), dsts...)
	sort.Ints(sorted)
	h := uint64(fpOffset)
	prev := -1
	n := 0
	for _, d := range sorted {
		if d == prev {
			continue // duplicates do not change the tree
		}
		prev = d
		h = fpMix(h, uint64(d))
		n++
	}
	h = fpMix(h, uint64(n))
	return fpFinal(h)
}

// CacheStats is a snapshot of cache effectiveness counters. A Hit includes
// callers that joined an in-flight computation of the same key (the DP ran
// once for the whole group).
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
}

// cacheEntry holds one solved instance: val is the *VRT or *VRTree the key's
// family stores (a typed nil beside an error).
type cacheEntry struct {
	key CacheKey
	val any
	err error
}

// inflightCall coalesces concurrent misses on the same key.
type inflightCall struct {
	done chan struct{}
	val  any
	err  error
}

// Cache memoizes Optimize results, bounded by an LRU policy. It is safe for
// concurrent use; concurrent misses on the same key run the dynamic program
// once and share the result (single-flight). Infeasible instances are cached
// too, so a session flapping against ErrNoFeasibleMapping does not re-pay
// the DP on every retry.
type Cache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List
	index    map[CacheKey]*list.Element
	inflight map[CacheKey]*inflightCall
	hits     uint64
	misses   uint64
}

// DefaultCacheCapacity bounds a NewCache(0) cache. Each entry is a solved
// VRT — tens of small strings — so even thousands are cheap; the bound
// exists to keep long-running multi-session services from growing without
// limit as network conditions drift.
const DefaultCacheCapacity = 4096

// NewCache builds an optimizer cache holding up to capacity solved
// instances (capacity <= 0 selects DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[CacheKey]*list.Element),
		inflight: make(map[CacheKey]*inflightCall),
	}
}

// Optimize is the memoized equivalent of the package-level Optimize. The
// returned VRT is a private copy the caller may retain and mutate.
func (c *Cache) Optimize(g *Graph, p *Pipeline, src, dst int) (*VRT, error) {
	key := CacheKey{Graph: g.Fingerprint(), Pipe: p.Fingerprint(), Src: src, Dst: dst}
	return memoize(c, key, func() (*VRT, error) { return Optimize(g, p, src, dst) })
}

// OptimizeMultiTiered is the memoized equivalent of the package-level
// OptimizeMultiTiered: one solved tree per (graph, pipeline, source,
// destination-set, tier budget) instance, so every viewer of a fan-out
// session after the first consults the cache instead of re-running the tree
// DP, and a session re-negotiating its ladder never sees a tree solved
// under a different budget. Concurrent misses on the same key are
// single-flight. The returned tree is a private copy the caller may retain
// and mutate, with its branches in this caller's deduplicated request order
// whichever order the instance was first solved in.
func (c *Cache) OptimizeMultiTiered(g *Graph, p *Pipeline, src int, dsts []int, maxTier cost.Tier) (*VRTree, error) {
	key := CacheKey{Graph: g.Fingerprint(), Pipe: p.Fingerprint(), Src: src, Dst: -1,
		Dsts: dstSetFingerprint(dsts), Tier: maxTier}
	tree, err := memoize(c, key, func() (*VRTree, error) { return OptimizeMultiTiered(g, p, src, dsts, maxTier) })
	if tree != nil {
		// The key is order-insensitive; the branch order is not.
		placed := 0
		for _, d := range dsts {
			for i := placed; i < len(tree.Branches); i++ {
				if tree.Branches[i].Dst == g.Nodes[d].Name {
					tree.Branches[placed], tree.Branches[i] = tree.Branches[i], tree.Branches[placed]
					placed++
					break
				}
			}
		}
	}
	return tree, err
}

// memoize is the LRU-hit / single-flight / store-and-evict skeleton shared
// by both optimizer families; compute runs exactly once per missed key.
// Returned values are private clones.
func memoize[T interface{ Clone() T }](c *Cache, key CacheKey, compute func() (T, error)) (T, error) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.hits++
		c.mu.Unlock()
		return ent.val.(T).Clone(), ent.err
	}
	if call, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-call.done
		return call.val.(T).Clone(), call.err
	}
	c.misses++
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	val, err := compute()

	c.mu.Lock()
	call.val, call.err = val, err
	close(call.done)
	delete(c.inflight, key)
	el := c.lru.PushFront(&cacheEntry{key: key, val: val, err: err})
	c.index[key] = el
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.index, oldest.Value.(*cacheEntry).key)
	}
	c.mu.Unlock()
	return val.Clone(), err
}

// Stats snapshots the effectiveness counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len()}
}
