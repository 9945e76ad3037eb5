// Package spm models the software-managed on-chip scratchpad memory of the
// NPU. The simulator gives the streaming half of the SPM (the other half is
// the double-buffer fill target) to a byte-accounted LRU residency set; data
// reuse — including the cross-operation dY reuse the paper creates — then
// *emerges* from the order of tile accesses rather than being asserted.
package spm

import "fmt"

// Stats counts residency events.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Merge adds o's counters into s. Every counter merge in the simulator goes
// through here, so a counter added to Stats cannot be forgotten in one of
// the call sites.
func (s *Stats) Merge(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
}

// nilID terminates the intrusive recency list.
const nilID = int32(-1)

// Residency is a byte-capacity LRU residency set over dense tile IDs
// 0..n-1 (as interned by schedule.Compiler): an intrusive doubly-linked
// recency list kept in flat arrays, so touches, inserts and removals do no
// map lookups and, once the arrays have grown to a program's tile table,
// no allocations.
//
// Reuse pattern: SetCapacity (per configuration) -> Resize (per tile
// table) -> Touch/Insert/Remove, with Flush at kernel boundaries.
type Residency struct {
	capacity, used int64
	head, tail     int32
	prev, next     []int32
	resident       []bool
	bytes          []int64
	victims        []int32 // eviction scratch, reused across inserts

	// Stats accumulates hit/miss/eviction counts. Flush and Resize keep
	// them; zero the field when starting a fresh measurement.
	Stats Stats
}

// SetCapacity sets the capacity in bytes. A non-positive capacity panics.
func (r *Residency) SetCapacity(capacity int64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("spm: invalid capacity %d", capacity))
	}
	r.capacity = capacity
}

// Capacity returns the capacity in bytes.
func (r *Residency) Capacity() int64 { return r.capacity }

// Used returns the bytes currently resident.
func (r *Residency) Used() int64 { return r.used }

// Resize sizes the set for tile IDs 0..n-1, reusing array capacity, and
// empties it.
func (r *Residency) Resize(n int) {
	if cap(r.prev) >= n {
		r.prev = r.prev[:n]
		r.next = r.next[:n]
		r.resident = r.resident[:n]
		r.bytes = r.bytes[:n]
	} else {
		r.prev = make([]int32, n)
		r.next = make([]int32, n)
		r.resident = make([]bool, n)
		r.bytes = make([]int64, n)
	}
	r.Flush()
}

// Flush empties the set. Statistics are preserved.
func (r *Residency) Flush() {
	clear(r.resident)
	r.used = 0
	r.head, r.tail = nilID, nilID
}

// Contains reports residency without touching recency or stats.
func (r *Residency) Contains(id int32) bool { return r.resident[id] }

// Touch marks id as most recently used if resident, counting a hit or miss.
//
//lint:hotpath
func (r *Residency) Touch(id int32) bool {
	if !r.resident[id] {
		r.Stats.Misses++
		return false
	}
	r.Stats.Hits++
	if r.head != id {
		r.unlink(id)
		r.pushFront(id)
	}
	return true
}

// Insert adds id with the given size, evicting least-recently-used tiles
// as needed. The returned victims (oldest first) stay valid until the next
// Insert. changed is false when id was already resident: its recency is
// refreshed and nothing is evicted. A tile larger than the whole set
// cannot be held: Insert panics, because the tiler is required to produce
// SPM-fitting tiles.
//
//lint:hotpath
func (r *Residency) Insert(id int32, bytes int64) (victims []int32, changed bool) {
	if bytes <= 0 {
		panic(fmt.Sprintf("spm: invalid tile size %d", bytes))
	}
	if bytes > r.capacity {
		panic(fmt.Sprintf("spm: tile of %d bytes exceeds SPM capacity %d", bytes, r.capacity))
	}
	if r.resident[id] {
		if r.head != id {
			r.unlink(id)
			r.pushFront(id)
		}
		return nil, false
	}
	r.victims = r.victims[:0]
	for r.used+bytes > r.capacity {
		v := r.tail
		if v == nilID {
			break
		}
		r.unlink(v)
		r.resident[v] = false
		r.used -= r.bytes[v]
		r.Stats.Evictions++
		r.victims = append(r.victims, v)
	}
	r.resident[id] = true
	r.bytes[id] = bytes
	r.used += bytes
	r.pushFront(id)
	return r.victims, true
}

// Remove drops id, reporting whether it was resident.
//
//lint:hotpath
func (r *Residency) Remove(id int32) bool {
	if !r.resident[id] {
		return false
	}
	r.unlink(id)
	r.resident[id] = false
	r.used -= r.bytes[id]
	return true
}

// Keys returns the resident IDs in recency order, most recently used
// first. Differential tests use it to compare the full LRU state against
// an independently modelled reference, not just the byte totals.
func (r *Residency) Keys() []int32 {
	var ids []int32
	for i := r.head; i != nilID; i = r.next[i] {
		ids = append(ids, i)
	}
	return ids
}

//lint:hotpath
func (r *Residency) unlink(i int32) {
	p, n := r.prev[i], r.next[i]
	if p != nilID {
		r.next[p] = n
	} else {
		r.head = n
	}
	if n != nilID {
		r.prev[n] = p
	} else {
		r.tail = p
	}
}

//lint:hotpath
func (r *Residency) pushFront(i int32) {
	r.prev[i] = nilID
	r.next[i] = r.head
	if r.head != nilID {
		r.prev[r.head] = i
	}
	r.head = i
	if r.tail == nilID {
		r.tail = i
	}
}
