package spm

import (
	"slices"
	"testing"
	"testing/quick"
)

// newSet returns an empty set of the given capacity over tile IDs 0..n-1.
func newSet(capacity int64, n int) *Residency {
	r := &Residency{}
	r.SetCapacity(capacity)
	r.Resize(n)
	return r
}

func TestInsertAndTouch(t *testing.T) {
	b := newSet(100, 4)
	if b.Touch(0) {
		t.Fatal("hit on empty set")
	}
	if evicted, changed := b.Insert(0, 40); len(evicted) != 0 || !changed {
		t.Fatalf("insert into empty set: evicted %v, changed %v", evicted, changed)
	}
	if !b.Touch(0) {
		t.Fatal("miss after insert")
	}
	if b.Used() != 40 || len(b.Keys()) != 1 {
		t.Fatalf("used/len = %d/%d", b.Used(), len(b.Keys()))
	}
	if b.Stats.Hits != 1 || b.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	b := newSet(100, 4)
	b.Insert(0, 40)
	b.Insert(1, 40)
	b.Touch(0) // refresh 0: 1 is now least recently used
	evicted, _ := b.Insert(2, 40)
	if !slices.Equal(evicted, []int32{1}) {
		t.Fatalf("evicted %v, want [1]", evicted)
	}
	if !b.Contains(0) || !b.Contains(2) || b.Contains(1) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestInsertEvictsMultiple(t *testing.T) {
	b := newSet(100, 4)
	b.Insert(0, 30)
	b.Insert(1, 30)
	b.Insert(2, 30)
	evicted, _ := b.Insert(3, 90)
	if !slices.Equal(evicted, []int32{0, 1, 2}) {
		t.Fatalf("evicted %v, want all three oldest-first", evicted)
	}
	if b.Used() != 90 || len(b.Keys()) != 1 {
		t.Fatalf("used/len = %d/%d", b.Used(), len(b.Keys()))
	}
}

func TestReinsertRefreshesRecency(t *testing.T) {
	b := newSet(100, 4)
	b.Insert(0, 40)
	b.Insert(1, 40)
	if _, changed := b.Insert(0, 40); changed { // refresh, no size change
		t.Fatal("re-insert of a resident tile reported a change")
	}
	if b.Used() != 80 {
		t.Fatalf("used = %d after refresh", b.Used())
	}
	evicted, _ := b.Insert(2, 40)
	if !slices.Equal(evicted, []int32{1}) {
		t.Fatalf("evicted %v, want [1]", evicted)
	}
}

func TestRemove(t *testing.T) {
	b := newSet(100, 4)
	b.Insert(0, 60)
	if !b.Remove(0) {
		t.Fatal("remove reported missing")
	}
	if b.Remove(0) {
		t.Fatal("double remove succeeded")
	}
	if b.Used() != 0 || b.Contains(0) {
		t.Fatal("remove left residue")
	}
}

func TestFlushKeepsStats(t *testing.T) {
	b := newSet(100, 4)
	b.Insert(0, 10)
	b.Touch(0)
	b.Flush()
	if b.Used() != 0 || len(b.Keys()) != 0 || b.Contains(0) {
		t.Fatal("flush incomplete")
	}
	if b.Stats.Hits != 1 {
		t.Fatal("flush cleared stats")
	}
	// Resize reuses the arrays and also starts empty, keeping stats.
	b.Insert(3, 10)
	b.Resize(2)
	if b.Used() != 0 || len(b.Keys()) != 0 || b.Stats.Hits != 1 {
		t.Fatalf("resize left used=%d keys=%v stats=%+v", b.Used(), b.Keys(), b.Stats)
	}
}

func TestOversizedTilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tile larger than the set")
		}
	}()
	newSet(10, 2).Insert(1, 11)
}

func TestInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive tile size")
		}
	}()
	newSet(10, 2).Insert(1, 0)
}

func TestNewInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive capacity")
		}
	}()
	newSet(0, 2)
}

// TestAccountingInvariant checks with random workloads that Used() always
// equals the sum of resident tile sizes and never exceeds capacity.
func TestAccountingInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		b := newSet(256, 37)
		shadow := make(map[int32]int64)
		for _, op := range ops {
			id := int32(op % 37)
			size := int64(op%63) + 1
			if op%3 == 0 {
				if b.Remove(id) {
					delete(shadow, id)
				}
				continue
			}
			if b.Contains(id) {
				b.Touch(id)
				continue
			}
			evicted, _ := b.Insert(id, size)
			for _, v := range evicted {
				delete(shadow, v)
			}
			shadow[id] = size
			var sum int64
			for _, s := range shadow {
				sum += s
			}
			if b.Used() != sum || b.Used() > b.Capacity() || len(b.Keys()) != len(shadow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionsCountedInStats(t *testing.T) {
	b := newSet(50, 4)
	b.Insert(1, 30)
	b.Insert(2, 30)
	if b.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", b.Stats.Evictions)
	}
}

func TestKeysRecencyOrder(t *testing.T) {
	b := newSet(100, 4)
	b.Insert(0, 10)
	b.Insert(1, 10)
	b.Insert(2, 10)
	if got := b.Keys(); !slices.Equal(got, []int32{2, 1, 0}) {
		t.Fatalf("Keys() = %v, want [2 1 0]", got)
	}
	// Touching refreshes recency; removing drops the ID from the order.
	b.Touch(0)
	b.Remove(1)
	if got := b.Keys(); !slices.Equal(got, []int32{0, 2}) {
		t.Fatalf("Keys() after touch/remove = %v, want [0 2]", got)
	}
	if b.Flush(); len(b.Keys()) != 0 {
		t.Fatalf("Keys() after flush = %v, want empty", b.Keys())
	}
}
