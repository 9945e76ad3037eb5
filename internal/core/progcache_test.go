package core

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/refmodel"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/trace"
)

// TestProgramCacheBitEquivalent proves the shared-program path changes no
// results: for every policy, a backward pass through the compiled-program
// cache must be bit-identical to a traced run, which never touches the
// cache and simulates freshly emitted schedules instead, and the forward
// pass likewise.
func TestProgramCacheBitEquivalent(t *testing.T) {
	ResetCaches()
	cfg := config.SmallNPU()
	p := LayerParams(tensor.Dims{M: 96, K: 384, N: 160}, 7, cfg)
	emitted := sim.Options{Trace: trace.New()}

	for _, pol := range Policies() {
		for _, skipDX := range []bool{false, true} {
			ResetCaches()
			got := RunBackward(cfg, sim.Options{}, p, pol, skipDX)
			ResetCaches()
			want := RunBackward(cfg, emitted, p, pol, skipDX)
			if got != want {
				t.Errorf("policy %v skipDX=%v: program-cache path diverged:\n got %+v\nwant %+v",
					pol, skipDX, got, want)
			}
		}
	}

	ResetCaches()
	gotF := RunForward(cfg, sim.Options{}, p)
	ResetCaches()
	wantF := RunForward(cfg, emitted, p)
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

	opts := sim.Options{}
	a := RunBackward(fast, opts, p, PolBaseline, false)
	entries := ProgramCacheLen()
	if entries == 0 {
		t.Fatal("compiled-program cache stayed empty on an untraced run")
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

// TestTunerFallbackMatchesOracle drives a shape past panelOpBudget — the
// GPU validation study's 128 KB buffer makes one — so the tuners take the
// gather-and-run-once path: one transient basis per tuner call, each
// candidate run on the one-shot engine. Every tuner must pick exactly the
// candidate with the fewest refmodel oracle cycles over the emitted
// schedules (the first on ties), and the transient programs must leave no
// panel and no resolved trace behind.
func TestTunerFallbackMatchesOracle(t *testing.T) {
	cfg := config.GPULike()
	p := LayerParams(tensor.Dims{M: 1024, K: 1024, N: 576}, 1, cfg)
	if p.OpCount() <= panelOpBudget {
		t.Fatalf("shape has %d ops, not above the panel budget %d", p.OpCount(), panelOpBudget)
	}
	ResetCaches()
	defer ResetCaches()
	base, ilv, order := baselineChoices(cfg, p), interleaveChoices(cfg, p), BestOrderSimulated(cfg, p)
	for _, c := range []interface{ Len() int }{basePanels, mergePanels, majorPanels} {
		if n := c.Len(); n != 0 {
			t.Errorf("fallback retained %d panels", n)
		}
	}
	if n := sim.ResolvedCacheStats().Entries; n != 0 {
		t.Errorf("fallback left %d resolved traces", n)
	}

	single := cfg
	single.Cores = 1
	np := tuneParams(p)
	// oracleBest returns the index of the walk with the fewest oracle
	// cycles, the first on ties.
	oracleBest := func(n int, walk func(i int) schedule.Walk) int {
		besti, best := 0, int64(-1)
		for i := 0; i < n; i++ {
			cyc := refmodel.ReplaySchedules(single, refmodel.Options{}, np.Schedule("", walk(i))).Cycles
			if best < 0 || cyc < best {
				besti, best = i, cyc
			}
		}
		return besti
	}
	if want := dxOrders[oracleBest(len(dxOrders), func(i int) schedule.Walk {
		return schedule.BaselineDXWalk(dxOrders[i])
	})]; base.dx != want {
		t.Errorf("baseline dX order %v, oracle picks %v", base.dx, want)
	}
	if want := dwOrders[oracleBest(len(dwOrders), func(i int) schedule.Walk {
		return schedule.BaselineDWWalk(dwOrders[i])
	})]; base.dw != want {
		t.Errorf("baseline dW order %v, oracle picks %v", base.dw, want)
	}
	vs := mergeCandidates(np)
	if want := vs[oracleBest(len(vs), func(i int) schedule.Walk { return mergeWalk(vs[i]) })]; ilv != want {
		t.Errorf("interleave pick %+v, oracle picks %+v", ilv, want)
	}
	orders := Orders()
	if want := orders[oracleBest(len(orders), func(i int) schedule.Walk {
		k, _ := rearrangedWalk(single, np, orders[i])
		return k.w
	})]; order != want {
		t.Errorf("access order %v, oracle picks %v", order, want)
	}
}
