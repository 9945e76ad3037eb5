package core

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

// TestProgramCacheBitEquivalent proves the shared-program path changes no
// results: for every policy, a backward pass through the compiled-program
// cache must be bit-identical to the reference interpreter (which never
// touches the cache), and the forward pass likewise.
func TestProgramCacheBitEquivalent(t *testing.T) {
	ResetCaches()
	cfg := config.SmallNPU()
	p := LayerParams(tensor.Dims{M: 96, K: 384, N: 160}, 7, cfg)

	for _, pol := range Policies() {
		for _, skipDX := range []bool{false, true} {
			ResetCaches()
			got := RunBackward(cfg, sim.Options{Compiled: sim.EngineCompiled}, p, pol, skipDX)
			ResetCaches()
			want := RunBackward(cfg, sim.Options{Compiled: sim.EngineInterpreted}, p, pol, skipDX)
			if got != want {
				t.Errorf("policy %v skipDX=%v: program-cache path diverged:\n got %+v\nwant %+v",
					pol, skipDX, got, want)
			}
		}
	}

	ResetCaches()
	gotF := RunForward(cfg, sim.Options{Compiled: sim.EngineCompiled}, p)
	ResetCaches()
	wantF := RunForward(cfg, sim.Options{Compiled: sim.EngineInterpreted}, p)
	if gotF != wantF {
		t.Errorf("forward: program-cache path diverged:\n got %+v\nwant %+v", gotF, wantF)
	}
}

// TestProgramCacheSharesAcrossTimings proves the point of the cache: two
// configurations that differ only in DRAM bandwidth (a timing fact the
// emitted tile streams cannot see) share one compiled program per layer
// point, while the layer memo — keyed on the full hardware fingerprint —
// must treat them as distinct.
func TestProgramCacheSharesAcrossTimings(t *testing.T) {
	ResetCaches()
	fast := config.SmallNPU()
	slow := fast.WithBandwidth(fast.DRAMBandwidth / 2)
	p := LayerParams(tensor.Dims{M: 128, K: 256, N: 128}, 3, fast)

	opts := sim.Options{Compiled: sim.EngineCompiled}
	a := RunBackward(fast, opts, p, PolBaseline, false)
	entries := ProgramCacheLen()
	if entries == 0 {
		t.Fatal("compiled-program cache stayed empty on the compiled path")
	}
	b := RunBackward(slow, opts, p, PolBaseline, false)
	if ProgramCacheLen() != entries {
		t.Errorf("bandwidth-only change grew the program cache %d -> %d; the program should be shared",
			entries, ProgramCacheLen())
	}
	if a.Cycles == b.Cycles {
		t.Error("halving bandwidth left cycles unchanged; shared program must still be re-timed per config")
	}
	if a.Traffic != b.Traffic {
		t.Errorf("traffic changed with bandwidth: %+v vs %+v", a.Traffic, b.Traffic)
	}

	// Different layer ids of the same shape share the program too.
	p9 := p
	p9.Layer = 9
	_ = RunBackward(fast, opts, p9, PolBaseline, false)
	if ProgramCacheLen() != entries {
		t.Errorf("layer-id change grew the program cache %d -> %d; ids are normalized out of the key",
			entries, ProgramCacheLen())
	}

	ResetCaches()
	if ProgramCacheLen() != 0 {
		t.Errorf("ResetCaches left %d compiled programs cached", ProgramCacheLen())
	}
}

// TestTunerFallbackMatchesInterpreter drives a shape past panelOpBudget —
// the GPU validation study's 128 KB buffer makes one — so the tuners take
// the gather-and-run-once path: one transient basis per tuner call, each
// candidate run on the one-shot engine. Every tuner must pick exactly the
// candidate the interpreter picks from the emitted schedules, and the
// transient programs must leave no panel and no resolved trace behind.
func TestTunerFallbackMatchesInterpreter(t *testing.T) {
	cfg := config.GPULike()
	p := LayerParams(tensor.Dims{M: 1024, K: 1024, N: 576}, 1, cfg)
	if p.OpCount() <= panelOpBudget {
		t.Fatalf("shape has %d ops, not above the panel budget %d", p.OpCount(), panelOpBudget)
	}
	type picks struct {
		base, ilv ordersVal
		order     Order
	}
	tune := func(compiled bool) picks {
		prev := sim.SetCompiledDefault(compiled)
		defer sim.SetCompiledDefault(prev)
		ResetCaches()
		return picks{baselineChoices(cfg, p), interleaveChoices(cfg, p), BestOrderSimulated(cfg, p)}
	}
	gathered := tune(true)
	for _, c := range []interface{ Len() int }{basePanels, mergePanels, majorPanels} {
		if n := c.Len(); n != 0 {
			t.Errorf("fallback retained %d panels", n)
		}
	}
	if n := sim.ResolvedCacheStats().Entries; n != 0 {
		t.Errorf("fallback left %d resolved traces", n)
	}
	if interpreted := tune(false); gathered != interpreted {
		t.Fatalf("gathered picks %+v, interpreter picks %+v", gathered, interpreted)
	}
	ResetCaches()
}
