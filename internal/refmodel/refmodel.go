// Package refmodel is the differential oracle for the cycle simulator: a
// deliberately slow, obviously-correct reference interpreter that replays a
// tile-op stream ([]schedule.Op) against a fully-associative LRU scratchpad
// with exact byte accounting and reports independent traffic, hit/miss,
// eviction, spill and cycle counts — on one core (ReplaySchedules) or on
// several cores sharing or splitting the scratchpad (ReplayMulti).
//
// The oracle re-derives everything observable from the op-stream semantics
// (DESIGN.md §3f): which accesses hit or miss, what traffic each miss and
// writeback generates, which live partial sums spill under pressure, and
// how the two-stage double-buffered pipeline advances. Only the primitive
// hardware cost functions — dram.Channel.TransferCycles and
// systolic.Array.TileCycles — are shared with the engine: they are model
// parameters, not engine logic, and sharing them keeps the comparison
// bit-exact instead of bit-close.
//
// internal/sim holds the only engines — the compiled single-core and
// multi-core engines and the resolved-trace replay built on them; this
// package is the slow specification. Every counter they produce must agree
// bit-exactly with the oracle on every op stream (internal/proptest asserts
// this on hundreds of random cases per run for each engine, and
// `validate -refcheck` on every golden workload). The implementations are
// kept structurally different on purpose: the engine threads accounting
// through an incremental step function over interned tile IDs and an
// intrusive-list LRU, while the oracle lowers each op to an explicit access
// list and replays it against an O(n)-scan residency slice keyed by tile.
package refmodel

import (
	"fmt"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/systolic"
)

// Options mirrors the sim.Options knobs that change simulation results.
// Observability options (tracing) have no counterpart here: the oracle is
// the thing results are checked against, so it carries none.
type Options struct {
	// FreeDYOnDW makes dY reads issued by dW-side operations free, matching
	// the Section 3.3 limit study in sim.Options.
	FreeDYOnDW bool
}

// Counts is the oracle's independent tally of one replay. Field for field
// it mirrors sim.Result (with spm.Stats flattened) so the two can be
// compared exactly; see Compare.
type Counts struct {
	Cycles        int64
	ComputeCycles int64
	MemCycles     int64
	Traffic       dram.Traffic
	Ops           int64
	Hits          int64
	Misses        int64
	Evictions     int64
	Spills        int64
}

// accessKind labels one scratchpad access lowered from a tile op.
type accessKind uint8

const (
	// accAlloc places a partial-sum output tile without fetching it.
	accAlloc accessKind = iota
	// accLoad requires the tile resident, fetching it on a miss.
	accLoad
	// accLoadFree is accLoad with the fetch traffic waived (limit study).
	accLoadFree
	// accDrain writes the finished output tile back and frees it.
	accDrain
)

// access is one scratchpad access: a tile plus what must happen to it.
type access struct {
	kind  accessKind
	tile  schedule.Tile
	class dram.Class // traffic class charged on fetch (loads only)
	live  bool       // allocs only: tile is a live partial after this op
}

// lower translates one tile op into its ordered access list — the
// specification of what the engine's step does, written as data. The order
// matters: it fixes LRU recency and therefore who gets evicted.
func lower(op *schedule.Op, free bool) []access {
	acc := make([]access, 0, 4)
	if op.OutFirst {
		acc = append(acc, access{kind: accAlloc, tile: op.Out, live: !op.OutLast})
	} else {
		// Re-accumulation: the partial must be resident; a miss means it was
		// spilled earlier and is fetched back as intermediate traffic.
		acc = append(acc, access{kind: accLoad, tile: op.Out, class: dram.ClassAcc})
	}
	for _, t := range [2]schedule.Tile{op.A, op.B} {
		k := accLoad
		if free && op.Kind == schedule.KindDW && t.Key.Class == dram.ClassDY {
			k = accLoadFree
		}
		acc = append(acc, access{kind: k, tile: t, class: t.Key.Class})
	}
	if op.OutLast {
		acc = append(acc, access{kind: accDrain, tile: op.Out})
	}
	return acc
}

// pipe is one core's two-stage pipeline recurrence (double buffering,
// prefetch depth 2) plus that core's tallies.
type pipe struct {
	memDone     int64
	compDone    int64
	prevCompEnd int64

	c Counts
}

// machine holds what every core of a replay shares: the hardware cost
// primitives, the live partial-sum table and, on a multi-core replay, the
// record of which core placed each resident tile. Liveness and placement
// are keyed by tile, not by buffer: a tile key names one tensor tile
// whichever core touches it.
type machine struct {
	arr  systolic.Array
	chn  dram.Channel
	live map[schedule.TileKey]int64
	opts Options

	// loadedBy maps each resident tile to the core that placed it; nil on a
	// single core. A hit on a tile another core placed is a shared hit.
	loadedBy   map[schedule.TileKey]int
	sharedHits int64
}

func newMachine(cfg config.NPU, opts Options) machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return machine{
		arr: systolic.New(cfg),
		chn: dram.Channel{
			BytesPerCycle: cfg.BytesPerCycle(), // per core
			BurstLatency:  cfg.DRAMLatency,
		},
		live: make(map[schedule.TileKey]int64),
		opts: opts,
	}
}

// flush empties the given residency sets and forgets all liveness and
// placement — a kernel boundary. Pipeline time and counters carry on.
func (m *machine) flush(sets ...*lruSet) {
	for _, s := range sets {
		s.flush()
	}
	clear(m.live)
	clear(m.loadedBy)
}

// step replays a single tile op issued by core against residency set spm:
// lower it to accesses, apply them while tallying traffic into p, then
// advance p's pipeline.
func (m *machine) step(op *schedule.Op, core int, spm *lruSet, p *pipe) {
	var fetchBytes, writeBytes, spillBytes int64
	var bursts, spillBursts int

	place := func(t schedule.Tile) {
		for _, v := range spm.insert(t.Key, t.Bytes) {
			delete(m.loadedBy, v)
			bytes, isLive := m.live[v]
			if !isLive {
				continue // clean tile: dropping it costs nothing
			}
			spillBytes += bytes
			spillBursts++
			p.c.Traffic.AddWrite(dram.ClassAcc, bytes)
			p.c.Spills++
		}
		if m.loadedBy != nil {
			m.loadedBy[t.Key] = core
		}
	}

	for _, a := range lower(op, m.opts.FreeDYOnDW) {
		switch a.kind {
		case accAlloc:
			if a.live {
				m.live[a.tile.Key] = a.tile.Bytes
			}
			place(a.tile)
		case accLoad, accLoadFree:
			if spm.touch(a.tile.Key) {
				// Only operand hits count as sharing; a re-accumulated
				// partial is the issuing core's own.
				if by, ok := m.loadedBy[a.tile.Key]; ok && by != core && a.tile.Key != op.Out.Key {
					m.sharedHits++
				}
				continue
			}
			if a.kind == accLoad {
				fetchBytes += a.tile.Bytes
				bursts++
				p.c.Traffic.AddRead(a.class, a.tile.Bytes)
			}
			place(a.tile)
		case accDrain:
			writeBytes += a.tile.Bytes
			bursts++
			p.c.Traffic.AddWrite(a.tile.Key.Class, a.tile.Bytes)
			spm.remove(a.tile.Key)
			delete(m.live, a.tile.Key)
			delete(m.loadedBy, a.tile.Key)
		}
	}

	memCycles := m.chn.TransferCycles(fetchBytes+writeBytes+spillBytes, bursts+spillBursts)
	compCycles := m.arr.TileCycles(op.Tm, op.Tk, op.Tn)

	// The DMA stage may run at most one op ahead of compute.
	memEnd := max(p.memDone, p.prevCompEnd) + memCycles
	compEnd := max(p.compDone, memEnd) + compCycles
	p.memDone = memEnd
	p.prevCompEnd = p.compDone
	p.compDone = compEnd

	p.c.ComputeCycles += compCycles
	p.c.MemCycles += memCycles
	p.c.Ops++
}

// counts returns p's tallies with the makespan and spm's residency stats
// filled in.
func (p *pipe) counts(spm *lruSet) Counts {
	c := p.c
	c.Cycles = p.compDone
	if spm != nil {
		c.Hits = spm.hits
		c.Misses = spm.misses
		c.Evictions = spm.evictions
	}
	return c
}

// Replay is the reference interpreter for one core. Scratchpad state
// persists across Run calls; Flush models a kernel boundary.
type Replay struct {
	m   machine
	spm *lruSet
	p   pipe
}

// New builds a reference interpreter for cfg. The residency capacity is the
// streaming half of the scratchpad, exactly as the engine models it.
func New(cfg config.NPU, opts Options) *Replay {
	return &Replay{m: newMachine(cfg, opts), spm: newLRUSet(cfg.SPMBytes / 2)}
}

// Flush empties the scratchpad without touching pipeline time or counters —
// the kernel boundary between schedules.
func (r *Replay) Flush() { r.m.flush(r.spm) }

// Counts returns the accumulated tallies of all Run calls.
func (r *Replay) Counts() Counts { return r.p.counts(r.spm) }

// Run replays one op stream, continuing the pipeline from previous calls.
func (r *Replay) Run(ops []schedule.Op) {
	for i := range ops {
		r.m.step(&ops[i], 0, r.spm, &r.p)
	}
}

// ReplaySchedules replays the given schedules in order on a fresh
// interpreter, flushing the scratchpad at each schedule boundary — the
// oracle twin of sim.RunSchedules.
func ReplaySchedules(cfg config.NPU, opts Options, scheds ...schedule.Schedule) Counts {
	r := New(cfg, opts)
	for i, s := range scheds {
		if i > 0 {
			r.Flush()
		}
		r.Run(s.Ops)
	}
	return r.Counts()
}

// MultiCounts is the oracle's tally of a multi-core replay, mirroring
// sim.MultiResult field for field; see CompareMulti.
type MultiCounts struct {
	// Cycles is the slowest core's completion time.
	Cycles int64
	// PerCore holds each core's tallies. Residency stats are reported on
	// core 0 only: those of the shared set, or of core 0's private slice.
	PerCore []Counts
	// Traffic is the sum of every core's traffic.
	Traffic dram.Traffic
	// SharedHits counts operand hits on tiles a different core placed;
	// always zero under private placement.
	SharedHits int64
}

// ReplayMulti is the oracle twin of sim.RunMultiPhased: phases of
// concurrent per-core op streams, each core with its own pipeline and DRAM
// slice. With shared placement one residency set spans the whole
// scratchpad; otherwise each core owns a private per-core slice. Every
// residency set is flushed between phases while pipeline time carries
// over. Within a phase the streams are merged round-robin, one op per core
// per round, and the core served first rotates by one every round.
func ReplayMulti(cfg config.NPU, opts Options, phases [][][]schedule.Op, shared bool) MultiCounts {
	if len(phases) == 0 {
		panic("refmodel: no phases")
	}
	cores := 0
	for _, streams := range phases {
		if len(streams) == 0 || len(streams) > cfg.Cores {
			panic(fmt.Sprintf("refmodel: phase has %d streams for %d cores", len(streams), cfg.Cores))
		}
		cores = max(cores, len(streams))
	}
	m := newMachine(cfg, opts)
	m.loadedBy = make(map[schedule.TileKey]int)
	sets := make([]*lruSet, cores)
	for c := range sets {
		switch {
		case !shared:
			sets[c] = newLRUSet(cfg.SPMBytes / 2)
		case c == 0:
			sets[c] = newLRUSet(cfg.TotalSPMBytes() / 2)
		default:
			sets[c] = sets[0]
		}
	}
	pipes := make([]pipe, cores)

	for pi, streams := range phases {
		if pi > 0 {
			m.flush(sets...)
		}
		next := make([]int, len(streams))
		for round := 0; ; round++ {
			progressed := false
			for i := range streams {
				c := (round + i) % len(streams)
				if next[c] == len(streams[c]) {
					continue
				}
				m.step(&streams[c][next[c]], c, sets[c], &pipes[c])
				next[c]++
				progressed = true
			}
			if !progressed {
				break
			}
		}
	}

	out := MultiCounts{PerCore: make([]Counts, cores)}
	if shared {
		out.SharedHits = m.sharedHits
	}
	for c := range pipes {
		var stats *lruSet
		if c == 0 {
			stats = sets[0]
		}
		out.PerCore[c] = pipes[c].counts(stats)
		out.Traffic.Merge(pipes[c].c.Traffic)
		out.Cycles = max(out.Cycles, pipes[c].compDone)
	}
	return out
}

// lruSet is the oracle's fully-associative byte-capacity LRU residency set:
// a plain slice ordered most-recently-used first, manipulated with O(n)
// scans. Slow and obviously correct — the point of this package.
type lruSet struct {
	capacity int64
	used     int64
	order    []lruEntry // index 0 is most recently used

	hits, misses, evictions int64
}

type lruEntry struct {
	key   schedule.TileKey
	bytes int64
}

func newLRUSet(capacity int64) *lruSet {
	if capacity <= 0 {
		panic(fmt.Sprintf("refmodel: invalid capacity %d", capacity))
	}
	return &lruSet{capacity: capacity}
}

// find returns the position of key in the recency order, or -1.
func (l *lruSet) find(key schedule.TileKey) int {
	for i := range l.order {
		if l.order[i].key == key {
			return i
		}
	}
	return -1
}

// front moves the entry at position i to the most-recently-used slot.
func (l *lruSet) front(i int) {
	e := l.order[i]
	copy(l.order[1:i+1], l.order[:i])
	l.order[0] = e
}

// touch marks key most recently used if resident, counting a hit or miss.
func (l *lruSet) touch(key schedule.TileKey) bool {
	i := l.find(key)
	if i < 0 {
		l.misses++
		return false
	}
	l.hits++
	l.front(i)
	return true
}

// insert places key, evicting from the least-recently-used end until it
// fits, and returns the evicted keys oldest-first. Inserting a resident key
// only refreshes recency. Neither a hit nor a miss is counted: residency
// checks happen in touch, placement here.
func (l *lruSet) insert(key schedule.TileKey, bytes int64) []schedule.TileKey {
	if bytes <= 0 {
		panic(fmt.Sprintf("refmodel: invalid tile size %d", bytes))
	}
	if bytes > l.capacity {
		panic(fmt.Sprintf("refmodel: tile of %d bytes exceeds capacity %d", bytes, l.capacity))
	}
	if i := l.find(key); i >= 0 {
		l.front(i)
		return nil
	}
	var evicted []schedule.TileKey
	for l.used+bytes > l.capacity && len(l.order) > 0 {
		last := l.order[len(l.order)-1]
		l.order = l.order[:len(l.order)-1]
		l.used -= last.bytes
		l.evictions++
		evicted = append(evicted, last.key)
	}
	l.order = append([]lruEntry{{key: key, bytes: bytes}}, l.order...)
	l.used += bytes
	return evicted
}

// remove drops key from the set if resident.
func (l *lruSet) remove(key schedule.TileKey) {
	i := l.find(key)
	if i < 0 {
		return
	}
	l.used -= l.order[i].bytes
	l.order = append(l.order[:i], l.order[i+1:]...)
}

// flush empties the set, preserving counters.
func (l *lruSet) flush() {
	l.order = nil
	l.used = 0
}
