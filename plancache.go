package fusedscan

import (
	"container/list"
	"sync"

	"fusedscan/internal/lqp"
)

// defaultPlanCacheCap is the default number of prepared-plan skeletons the
// engine retains. Each entry is a small optimized logical-plan chain (tens
// of nodes at most), so the cache is cheap; the capacity mainly bounds how
// many distinct statement shapes can stay warm at once.
const defaultPlanCacheCap = 256

// planKey identifies one cached plan skeleton: the normalized statement
// shape plus the catalog/config epoch it was planned under. Register,
// DropTable and SetConfig bump the engine epoch, so entries planned against
// a superseded catalog can never be served again — a re-registered table
// name misses the cache and replans against the new table.
type planKey struct {
	shape string
	epoch uint64
}

// planCache is a mutex-guarded LRU of plan skeletons shared by every
// statement, ad hoc or prepared. Entries are built, unoptimized *lqp.Plan
// values whose literals are $n parameter slots; callers Clone, Bind and
// optimize them per execution, never mutate them in place.
type planCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[planKey]*list.Element

	hits          int64
	misses        int64
	evictions     int64
	invalidations int64
}

type planCacheEntry struct {
	key  planKey
	plan *lqp.Plan
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheCap
	}
	return &planCache{cap: capacity, ll: list.New(), entries: make(map[planKey]*list.Element)}
}

// get returns the skeleton cached under k, updating recency and hit/miss
// counters.
func (c *planCache) get(k planKey) (*lqp.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*planCacheEntry).plan, true
}

// put inserts (or refreshes) a skeleton, evicting the least recently used
// entry when over capacity.
func (c *planCache) put(k planKey, p *lqp.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*planCacheEntry).plan = p
		c.ll.MoveToFront(el)
		return
	}
	c.entries[k] = c.ll.PushFront(&planCacheEntry{key: k, plan: p})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*planCacheEntry).key)
		c.evictions++
	}
}

// purge drops every entry (catalog or config changed); the count is
// reported as invalidations.
func (c *planCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations += int64(c.ll.Len())
	c.ll.Init()
	c.entries = make(map[planKey]*list.Element)
}

// setCapacity resizes the cache, evicting down to the new capacity.
func (c *planCache) setCapacity(capacity int) {
	if capacity <= 0 {
		capacity = defaultPlanCacheCap
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capacity
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*planCacheEntry).key)
		c.evictions++
	}
}

// planCacheStats is a point-in-time snapshot of the cache counters.
type planCacheStats struct {
	hits, misses, evictions, invalidations int64
	size                                   int
}

func (c *planCache) stats() planCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return planCacheStats{
		hits: c.hits, misses: c.misses,
		evictions: c.evictions, invalidations: c.invalidations,
		size: c.ll.Len(),
	}
}
