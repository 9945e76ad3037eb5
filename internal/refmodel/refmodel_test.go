package refmodel

import (
	"strings"
	"testing"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

func testCfg(spmBytes int64) config.NPU {
	return config.NPU{
		Name: "ref-test", ArrayRows: 4, ArrayCols: 4, Cores: 1,
		SPMBytes: spmBytes, DRAMBandwidth: 16e9, DRAMLatency: 7,
		FrequencyHz: 1e9, ElemBytes: 4, Batch: 1,
	}
}

func params(d tensor.Dims, tl schedule.Tiling) schedule.TileParams {
	return schedule.TileParams{Dims: d, Tiling: tl, ElemBytes: 4, Layer: 1}
}

// TestLRUSetBasics pins the slow residency set's semantics on a
// hand-computed sequence.
func TestLRUSetBasics(t *testing.T) {
	key := func(i int32) schedule.TileKey { return schedule.TileKey{Row: i} }
	l := newLRUSet(100)

	if l.touch(key(1)) {
		t.Fatal("empty set reported a hit")
	}
	if ev := l.insert(key(1), 40); ev != nil {
		t.Fatalf("insert into empty set evicted %v", ev)
	}
	if ev := l.insert(key(2), 40); ev != nil {
		t.Fatalf("fitting insert evicted %v", ev)
	}
	if !l.touch(key(1)) {
		t.Fatal("resident tile missed")
	}
	// Key 2 is now least recently used; a 40-byte insert must evict it only.
	ev := l.insert(key(3), 40)
	if len(ev) != 1 || ev[0] != key(2) {
		t.Fatalf("evicted %v, want [key 2]", ev)
	}
	if l.used != 80 {
		t.Fatalf("used = %d, want 80", l.used)
	}
	// Oversized inserts drain the set oldest-first.
	ev = l.insert(key(4), 100)
	if len(ev) != 2 || ev[0] != key(1) || ev[1] != key(3) {
		t.Fatalf("evicted %v, want [key 1, key 3]", ev)
	}
	if l.hits != 1 || l.misses != 1 || l.evictions != 3 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/3", l.hits, l.misses, l.evictions)
	}
	l.remove(key(4))
	if l.used != 0 || len(l.order) != 0 {
		t.Fatalf("remove left used=%d len=%d", l.used, len(l.order))
	}
}

// TestHandComputedTinyStream replays one op and checks every counter
// against a by-hand derivation, independent of both implementations.
func TestHandComputedTinyStream(t *testing.T) {
	p := params(tensor.Dims{M: 2, K: 2, N: 2}, schedule.Tiling{Tm: 2, Tk: 2, Tn: 2})
	op := p.DXOp(0, 0, 0, 1) // single-tile dX GEMM: OutFirst and OutLast
	cfg := testCfg(4096)
	r := New(cfg, Options{})
	r.Run([]schedule.Op{op})
	c := r.Counts()

	// Accesses: alloc dX out (no traffic), load dY miss (16 B), load W miss
	// (16 B), drain dX (16 B write). Misses: 2, hits: 0, no evictions.
	if c.Misses != 2 || c.Hits != 0 || c.Evictions != 0 || c.Spills != 0 {
		t.Fatalf("hits/misses/evictions/spills = %d/%d/%d/%d", c.Hits, c.Misses, c.Evictions, c.Spills)
	}
	if c.Traffic.Read[dram.ClassDY] != 16 || c.Traffic.Read[dram.ClassW] != 16 {
		t.Fatalf("reads = %+v", c.Traffic.Read)
	}
	if c.Traffic.Write[dram.ClassDX] != 16 || c.Traffic.Total() != 48 {
		t.Fatalf("writes = %+v total %d", c.Traffic.Write, c.Traffic.Total())
	}
	// 48 bytes at 16 B/cycle = 3 cycles + 3 bursts x 7 latency = 24 mem
	// cycles; compute = 1 fold x tk(2) + (4+4-2) = 8 cycles.
	if c.MemCycles != 24 || c.ComputeCycles != 8 {
		t.Fatalf("mem/comp = %d/%d, want 24/8", c.MemCycles, c.ComputeCycles)
	}
	if c.Cycles != 32 || c.Ops != 1 {
		t.Fatalf("cycles/ops = %d/%d, want 32/1", c.Cycles, c.Ops)
	}
}

// TestAgreesWithEngine sweeps deterministic schedules — all access orders,
// chunked variants, roomy and pressure-tight scratchpads, the dY limit
// study, and multi-schedule kernel boundaries — and demands bit-exact
// agreement with the engine.
func TestAgreesWithEngine(t *testing.T) {
	dims := []tensor.Dims{
		{M: 2, K: 2, N: 2},
		{M: 13, K: 9, N: 7},
		{M: 5, K: 24, N: 3},
		{M: 31, K: 4, N: 17},
		{M: 8, K: 40, N: 40},
	}
	tilings := []schedule.Tiling{
		{Tm: 4, Tk: 4, Tn: 4},
		{Tm: 5, Tk: 3, Tn: 2},
	}
	// 1.5 KiB residency forces evictions and partial-sum spills on the
	// larger layers; 64 KiB keeps everything resident.
	for _, spm := range []int64{3 * 1024, 128 * 1024} {
		cfg := testCfg(spm)
		for _, d := range dims {
			for _, tl := range tilings {
				p := params(d, tl)
				scheds := []schedule.Schedule{
					schedule.BaselineBackward(p),
					schedule.BaselineBackwardOrdered(p, schedule.DXOrderKM, schedule.DWOrderNK),
					core.InterleaveOnly(p),
					core.InterleaveDXMajor(p),
					core.InterleaveDWMajor(p),
					core.InterleaveDXMajorChunked(p, 2),
					core.InterleaveDWMajorChunked(p, 2),
				}
				for _, s := range scheds {
					for _, opts := range []sim.Options{{}, {FreeDYOnDW: true}} {
						got := sim.RunSchedules(cfg, opts, s)
						want := ReplaySchedules(cfg, Options{FreeDYOnDW: opts.FreeDYOnDW}, s)
						if err := Compare(got, want); err != nil {
							t.Fatalf("%v %v spm=%d free=%v: %v", d, s.Name, spm, opts.FreeDYOnDW, err)
						}
					}
				}
				// Kernel boundaries: dX and dW as separate flushed schedules.
				dx := schedule.Schedule{Name: "dx", Ops: schedule.BaselineDX(p)}
				dw := schedule.Schedule{Name: "dw", Ops: schedule.BaselineDW(p)}
				got := sim.RunSchedules(cfg, sim.Options{}, dx, dw)
				want := ReplaySchedules(cfg, Options{}, dx, dw)
				if err := Compare(got, want); err != nil {
					t.Fatalf("%v two-kernel spm=%d: %v", d, spm, err)
				}
			}
		}
	}
}

// TestSpillsExercised proves the agreement sweep actually covers the spill
// path: under the tight scratchpad at least one schedule must spill.
func TestSpillsExercised(t *testing.T) {
	cfg := testCfg(3 * 1024)
	p := params(tensor.Dims{M: 8, K: 40, N: 40}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	want := ReplaySchedules(cfg, Options{}, core.InterleaveDXMajor(p))
	if want.Spills == 0 {
		t.Fatal("tight configuration spilled nothing; agreement sweep is not covering pressure")
	}
	if want.Traffic.Write[dram.ClassAcc] == 0 || want.Traffic.Read[dram.ClassAcc] == 0 {
		t.Fatalf("spilled partials moved no intermediate traffic: %+v", want.Traffic)
	}
}

// TestCompareReportsEveryDivergence corrupts each comparable field in turn
// and checks Compare names it.
func TestCompareReportsEveryDivergence(t *testing.T) {
	cfg := testCfg(4096)
	p := params(tensor.Dims{M: 4, K: 4, N: 4}, schedule.Tiling{Tm: 2, Tk: 2, Tn: 2})
	s := core.InterleaveDXMajor(p)
	res := sim.RunSchedules(cfg, sim.Options{}, s)
	want := ReplaySchedules(cfg, Options{}, s)
	if err := Compare(res, want); err != nil {
		t.Fatalf("clean comparison failed: %v", err)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(*sim.Result)
	}{
		{"Cycles", func(r *sim.Result) { r.Cycles++ }},
		{"ComputeCycles", func(r *sim.Result) { r.ComputeCycles-- }},
		{"MemCycles", func(r *sim.Result) { r.MemCycles++ }},
		{"Ops", func(r *sim.Result) { r.Ops++ }},
		{"SPM.Hits", func(r *sim.Result) { r.SPM.Hits++ }},
		{"SPM.Misses", func(r *sim.Result) { r.SPM.Misses-- }},
		{"SPM.Evictions", func(r *sim.Result) { r.SPM.Evictions++ }},
		{"Spills", func(r *sim.Result) { r.Spills++ }},
		{"Traffic.Read[dY]", func(r *sim.Result) { r.Traffic.Read[dram.ClassDY]++ }},
		{"Traffic.Write[dW]", func(r *sim.Result) { r.Traffic.Write[dram.ClassDW]-- }},
	} {
		bad := res
		tc.corrupt(&bad)
		err := Compare(bad, want)
		if err == nil {
			t.Fatalf("%s corruption not detected", tc.name)
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("%s corruption reported as %q", tc.name, err)
		}
	}
}

// TestReplayMultiSharedPlacement hand-checks the multi-core oracle on two
// cores issuing the same single-tile dX op: under shared placement the
// second core finds both operands placed by the first (two shared hits,
// one fetch each); under private placement each core fetches its own copy
// and nothing is shared.
func TestReplayMultiSharedPlacement(t *testing.T) {
	p := params(tensor.Dims{M: 2, K: 2, N: 2}, schedule.Tiling{Tm: 2, Tk: 2, Tn: 2})
	op := []schedule.Op{p.DXOp(0, 0, 0, 1)}
	cfg := testCfg(4096)
	cfg.Cores = 2
	phases := [][][]schedule.Op{{op, op}}

	shared := ReplayMulti(cfg, Options{}, phases, true)
	if shared.SharedHits != 2 {
		t.Fatalf("shared placement: %d shared hits, want 2", shared.SharedHits)
	}
	if got := shared.Traffic.Read[dram.ClassDY] + shared.Traffic.Read[dram.ClassW]; got != 32 {
		t.Fatalf("shared placement read %d operand bytes, want 32 (one fetch per tile)", got)
	}
	if c0, c1 := shared.PerCore[0], shared.PerCore[1]; c0.Hits != 2 || c0.Misses != 2 || c1.Hits != 0 || c1.Misses != 0 {
		t.Fatalf("residency stats must sit on core 0 only: core0 %+v core1 %+v", c0, c1)
	}

	private := ReplayMulti(cfg, Options{}, phases, false)
	if private.SharedHits != 0 {
		t.Fatalf("private placement: %d shared hits, want 0", private.SharedHits)
	}
	if got := private.Traffic.Read[dram.ClassDY] + private.Traffic.Read[dram.ClassW]; got != 64 {
		t.Fatalf("private placement read %d operand bytes, want 64 (one fetch per tile per core)", got)
	}
	// Each core's own pipeline: one op, and the makespan is the slower core.
	for c, pc := range private.PerCore {
		if pc.Ops != 1 || pc.Cycles > private.Cycles {
			t.Fatalf("core %d: %+v against makespan %d", c, pc, private.Cycles)
		}
	}
}

// TestReplayMultiPhaseFlush checks the phase boundary: the same stream run
// in two phases on one core refetches everything after the flush, while
// pipeline time carries over.
func TestReplayMultiPhaseFlush(t *testing.T) {
	p := params(tensor.Dims{M: 8, K: 8, N: 8}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	dx := schedule.BaselineDX(p)
	cfg := testCfg(64 * 1024)
	one := ReplayMulti(cfg, Options{}, [][][]schedule.Op{{dx}}, true)
	two := ReplayMulti(cfg, Options{}, [][][]schedule.Op{{dx}, {dx}}, true)
	if two.Traffic.TotalRead() != 2*one.Traffic.TotalRead() {
		t.Fatalf("two phases read %d bytes, want %d", two.Traffic.TotalRead(), 2*one.Traffic.TotalRead())
	}
	if two.Cycles <= one.Cycles {
		t.Fatalf("second phase did not extend the makespan: %d vs %d", two.Cycles, one.Cycles)
	}
}

// TestCompareMultiNamesFields corrupts multi-core fields and checks
// CompareMulti names each one, per-core fields with their core index.
func TestCompareMultiNamesFields(t *testing.T) {
	p := params(tensor.Dims{M: 8, K: 8, N: 8}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	cfg := testCfg(4096)
	cfg.Cores = 2
	phases := [][][]schedule.Op{{schedule.BaselineDX(p), schedule.BaselineDXOrdered(p, schedule.DXOrderKM)}}
	res := sim.RunMultiPhased(cfg, sim.Options{}, phases, true)
	want := ReplayMulti(cfg, Options{}, phases, true)
	if err := CompareMulti(res, want); err != nil {
		t.Fatalf("clean comparison failed: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*sim.MultiResult)
	}{
		{"SharedHits", func(r *sim.MultiResult) { r.SharedHits++ }},
		{"Cycles", func(r *sim.MultiResult) { r.Cycles-- }},
		{"Traffic.Read[dY]", func(r *sim.MultiResult) { r.Traffic.Read[dram.ClassDY]++ }},
		{"core1.MemCycles", func(r *sim.MultiResult) { r.PerCore[1].MemCycles++ }},
		{"core0.SPM.Hits", func(r *sim.MultiResult) { r.PerCore[0].SPM.Hits++ }},
		{"len(PerCore)", func(r *sim.MultiResult) { r.PerCore = r.PerCore[:1] }},
	} {
		bad := res
		bad.PerCore = append([]sim.Result(nil), res.PerCore...)
		tc.corrupt(&bad)
		err := CompareMulti(bad, want)
		if err == nil {
			t.Fatalf("%s corruption not detected", tc.name)
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("%s corruption reported as %q", tc.name, err)
		}
	}
}
