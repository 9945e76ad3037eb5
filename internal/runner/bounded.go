package runner

import (
	"sync"

	"igosim/internal/stats"
)

// Bounded is a capacity-bounded LRU cache with a doorkeeper admission
// policy, for values too large to memoize unboundedly (resolved residency
// traces run to megabytes on big programs). It trades the sharding of
// Cache for strict LRU ordering under a single mutex: the values it holds
// are expensive enough to produce that the lock is never the bottleneck.
//
// Admission: while the cache is below capacity every key is admitted
// immediately (a cold sweep must not pay a double-resolve tax). Once full,
// a new key is admitted — evicting the LRU entry — only on its second
// miss: the unbounded `seen` set remembers every key ever requested, so
// one-shot keys cannot thrash the working set (the doorkeeper idea from
// the serving layer's admission cache, TinyLFU-style).
//
// The `seen` set doubles as the cache's deterministic census: the set of
// distinct keys ever requested does not depend on worker interleaving,
// even though the hit/miss split and the surviving resident set do. The
// stats sizer reports len(seen) for exactly that reason — manifests and
// benchmark gates need a -j-independent entry count. Values the owner
// resolves but retains elsewhere join the census through NoteDistinct.
type Bounded[K comparable, V any] struct {
	mu       sync.Mutex
	cap      int
	m        map[K]*boundedEntry[K, V]
	seen     map[K]struct{}
	noted    int                 // census entries retained outside the cache (NoteDistinct)
	head     *boundedEntry[K, V] // most recently used
	tail     *boundedEntry[K, V] // least recently used
	counters *stats.CacheCounters
}

type boundedEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *boundedEntry[K, V]
}

// NewBounded creates a bounded cache registered in the stats cache report
// under name, holding at most capacity entries. Capacity 0 disables the
// cache: Get always misses and Put is a no-op (only the seen-census still
// records keys).
func NewBounded[K comparable, V any](name string, capacity int) *Bounded[K, V] {
	b := &Bounded[K, V]{
		cap:      capacity,
		m:        make(map[K]*boundedEntry[K, V]),
		seen:     make(map[K]struct{}),
		counters: stats.NewCacheCounters(name),
	}
	b.counters.SetSizer(b.Distinct)
	return b
}

// SetCap changes the capacity. Shrinking evicts LRU entries down to the
// new bound; capacity 0 drops everything and disables the cache.
func (b *Bounded[K, V]) SetCap(capacity int) {
	b.mu.Lock()
	b.cap = capacity
	for len(b.m) > b.cap {
		b.evictLocked()
	}
	b.mu.Unlock()
}

// Cap returns the current capacity.
func (b *Bounded[K, V]) Cap() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cap
}

// Get returns the cached value for k, counting the lookup and recording k
// in the seen-census. A hit moves the entry to the front of the LRU list.
func (b *Bounded[K, V]) Get(k K) (V, bool) {
	b.mu.Lock()
	b.seen[k] = struct{}{}
	e, ok := b.m[k]
	if ok {
		b.moveFrontLocked(e)
		b.mu.Unlock()
		b.counters.Hit()
		return e.val, true
	}
	b.mu.Unlock()
	b.counters.Miss()
	var zero V
	return zero, false
}

// Put offers v for caching under k. Below capacity it is admitted
// immediately; at capacity the doorkeeper admits only keys already in the
// seen-census (i.e. requested at least once before), evicting the LRU
// entry to make room. Returns whether the value was admitted.
func (b *Bounded[K, V]) Put(k K, v V) bool {
	b.mu.Lock()
	if b.cap <= 0 {
		b.mu.Unlock()
		return false
	}
	if e, ok := b.m[k]; ok {
		e.val = v
		b.moveFrontLocked(e)
		b.mu.Unlock()
		return true
	}
	if len(b.m) >= b.cap {
		if _, ok := b.seen[k]; !ok {
			b.mu.Unlock()
			return false
		}
		b.evictLocked()
	}
	b.seen[k] = struct{}{}
	e := &boundedEntry[K, V]{key: k, val: v}
	b.m[k] = e
	b.pushFrontLocked(e)
	b.mu.Unlock()
	return true
}

func (b *Bounded[K, V]) evictLocked() {
	e := b.tail
	if e == nil {
		return
	}
	b.unlinkLocked(e)
	delete(b.m, e.key)
	b.counters.Eviction()
}

func (b *Bounded[K, V]) pushFrontLocked(e *boundedEntry[K, V]) {
	e.prev = nil
	e.next = b.head
	if b.head != nil {
		b.head.prev = e
	}
	b.head = e
	if b.tail == nil {
		b.tail = e
	}
}

func (b *Bounded[K, V]) unlinkLocked(e *boundedEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		b.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (b *Bounded[K, V]) moveFrontLocked(e *boundedEntry[K, V]) {
	if b.head == e {
		return
	}
	b.unlinkLocked(e)
	b.pushFrontLocked(e)
}

// Len returns the number of resident entries.
func (b *Bounded[K, V]) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

// Distinct returns the number of distinct keys ever requested (via Get or
// admitted Put) since the last Reset, plus the values noted with
// NoteDistinct. Unlike Len or the hit/miss split, this count is
// independent of worker interleaving for a fixed workload.
func (b *Bounded[K, V]) Distinct() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.seen) + b.noted
}

// NoteDistinct adds n values to the census that were resolved for this
// cache's purpose but are retained outside it, under keys it never sees.
// The caller must note each logical value exactly once, whatever the
// parallelism, or the census stops being -j-independent.
func (b *Bounded[K, V]) NoteDistinct(n int) {
	b.mu.Lock()
	b.noted += n
	b.mu.Unlock()
}

// Reset drops every entry, clears the seen-census, and zeroes counters.
func (b *Bounded[K, V]) Reset() {
	b.mu.Lock()
	b.m = make(map[K]*boundedEntry[K, V])
	b.seen = make(map[K]struct{})
	b.noted = 0
	b.head, b.tail = nil, nil
	b.mu.Unlock()
	b.counters.Reset()
}

// Stats returns the cache's current hit/miss snapshot.
func (b *Bounded[K, V]) Stats() stats.CacheSnapshot { return b.counters.Snapshot() }
