package core

import (
	"fmt"
	"reflect"
	"testing"

	"igosim/internal/config"
	"igosim/internal/refmodel"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/trace"
)

// TestProgramCacheBitEquivalent proves the shared-descriptor path changes
// no results: for every policy, a backward pass through the
// descriptor-keyed resolved-trace cache must be bit-identical to a traced
// run, which never touches the cache and simulates freshly emitted
// schedules instead, and the forward pass likewise.
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
				t.Errorf("policy %v skipDX=%v: descriptor path diverged:\n got %+v\nwant %+v",
					pol, skipDX, got, want)
			}
		}
	}

	ResetCaches()
	gotF := RunForward(cfg, sim.Options{}, p)
	ResetCaches()
	wantF := RunForward(cfg, emitted, p)
	if gotF != wantF {
		t.Errorf("forward: descriptor path diverged:\n got %+v\nwant %+v", gotF, wantF)
	}
}

// TestProgramCacheSharesAcrossTimings proves the point of descriptors: two
// configurations that differ only in DRAM bandwidth (a timing fact the
// tile streams cannot see) share one resolved trace per layer point, while
// the layer memo — keyed on the full hardware fingerprint — must treat
// them as distinct. The resolved-trace census counts the tuner panels'
// traces too, which the slower configuration re-tunes from without
// resolving anything new.
func TestProgramCacheSharesAcrossTimings(t *testing.T) {
	ResetCaches()
	fast := config.SmallNPU()
	slow := fast.WithBandwidth(fast.DRAMBandwidth / 2)
	p := LayerParams(tensor.Dims{M: 128, K: 256, N: 128}, 3, fast)
	census := func() int64 { return sim.ResolvedCacheStats().Entries }

	opts := sim.Options{}
	a := RunBackward(fast, opts, p, PolBaseline, false)
	entries := census()
	if entries == 0 {
		t.Fatal("resolved-trace cache stayed empty on an untraced run")
	}
	b := RunBackward(slow, opts, p, PolBaseline, false)
	if census() != entries {
		t.Errorf("bandwidth-only change grew the resolved-trace census %d -> %d; the trace should be shared",
			entries, census())
	}
	if a.Cycles == b.Cycles {
		t.Error("halving bandwidth left cycles unchanged; shared trace must still be re-timed per config")
	}
	if a.Traffic != b.Traffic {
		t.Errorf("traffic changed with bandwidth: %+v vs %+v", a.Traffic, b.Traffic)
	}

	// Different layer ids of the same shape share the trace too.
	p9 := p
	p9.Layer = 9
	_ = RunBackward(fast, opts, p9, PolBaseline, false)
	if census() != entries {
		t.Errorf("layer-id change grew the resolved-trace census %d -> %d; ids are normalized out of the descriptor",
			entries, census())
	}

	ResetCaches()
	if n := census(); n != 0 {
		t.Errorf("ResetCaches left %d resolved traces in the census", n)
	}
}

// TestDescriptorKeysCanonicalShape runs two layers of one shape that
// differ only in their Layer and Part ids: once tuned, the pair adds
// exactly one resolved trace per descriptor to the census, not one per
// layer. The partitioned search resolves several descriptors for the
// first layer and must resolve none for the second.
func TestDescriptorKeysCanonicalShape(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	cfg := config.SmallNPU()
	p := LayerParams(tensor.Dims{M: 96, K: 384, N: 160}, 3, cfg)
	q := p
	q.Layer, q.Part = 11, 1
	census := func() int64 { return sim.ResolvedCacheStats().Entries }
	backward := func(pol Policy, skipDX bool) func(schedule.TileParams) LayerOutcome {
		return func(p schedule.TileParams) LayerOutcome { return RunBackward(cfg, sim.Options{}, p, pol, skipDX) }
	}
	forward := func(p schedule.TileParams) LayerOutcome { return RunForward(cfg, sim.Options{}, p) }
	for _, pass := range []struct {
		name string
		tune func()
		run  func(p schedule.TileParams) LayerOutcome
		want int64 // traces the pair adds once tuned; 0: at least one
	}{
		{"baseline", func() { baselineChoices(cfg, p) }, backward(PolBaseline, false), 1},
		{"rearranged", func() { BestOrderSimulated(cfg, p) }, backward(PolRearrange, false), 1},
		{"dW-only", func() { baselineChoices(cfg, p) }, backward(PolInterleave, true), 1},
		{"forward", func() {}, forward, 1},
		{"partitioned", func() {}, backward(PolPartition, false), 0},
	} {
		ResetCaches()
		pass.tune()
		tuned := census()
		a := pass.run(p)
		first := census()
		b := pass.run(q)
		second := census()
		if added := first - tuned; added < 1 || (pass.want > 0 && added != pass.want) {
			t.Errorf("%s: the first layer added %d resolved traces, want %d", pass.name, added, max(pass.want, 1))
		}
		if second != first {
			t.Errorf("%s: a renamed layer of the same shape added %d resolved traces, want 0", pass.name, second-first)
		}
		if a != b {
			t.Errorf("%s: renamed layers differ:\n%+v\n%+v", pass.name, a, b)
		}
	}
}

// TestStreamedDescriptorsMatchGather holds every kind of descriptor to
// the gathered program and to the refmodel oracle on every Result field,
// free-dY both ways: the streamed resolution RunDesc runs on a miss, its
// replay on a hit, and the one-shot stream must each equal RunProgram of
// the program schedule.GatherProgram builds from the same kernels, and the
// oracle over the schedules emitted along the same walks.
func TestStreamedDescriptorsMatchGather(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	cfg := config.SmallNPU()
	p := LayerParams(tensor.Dims{M: 160, K: 800, N: 192}, 5, cfg)
	type named struct {
		name string
		d    progDesc
	}
	var descs []named
	for _, pol := range Policies() {
		for _, skipDX := range []bool{false, true} {
			if pol == PolPartition && !skipDX {
				continue // partitioned plans have descriptors of their own
			}
			descs = append(descs, named{fmt.Sprintf("backward/%v/skipDX=%v", pol, skipDX), backwardDesc(cfg, p, pol, skipDX)})
		}
	}
	for _, scheme := range Schemes() {
		for _, parts := range []int{2, 4} {
			plan := PartitionLayer(p, scheme, parts)
			if len(plan.Parts) != parts {
				t.Fatalf("%v/%d: plan has %d parts", scheme, parts, len(plan.Parts))
			}
			descs = append(descs, named{fmt.Sprintf("partitioned/%v/%d", scheme, parts), partitionedDesc(cfg, p, scheme, plan)})
		}
	}
	descs = append(descs, named{"forward", forwardDesc(p)})

	for _, nd := range descs {
		d := nd.d
		ks := d.Kernels()
		if n := schedule.GatherProgram(ks...).Ops(); n != d.Ops() {
			t.Errorf("%s: descriptor reports %d ops, its program has %d", nd.name, d.Ops(), n)
		}
		// The oracle replays the schedules emitted along the same walks.
		shapes := []schedule.TileParams{d.shape.params()}
		if d.parts > 0 {
			shapes = PartitionLayer(shapes[0], d.scheme, d.parts).Parts
		}
		scheds := make([]schedule.Schedule, len(ks))
		for i, k := range ks {
			scheds[i] = shapes[min(i, len(shapes)-1)].Schedule(k.Name, k.W)
		}
		for _, free := range []bool{false, true} {
			if d.fwd && free {
				continue // the forward pass takes no study options
			}
			opts := sim.Options{FreeDYOnDW: free}
			want := sim.RunProgram(cfg, opts, schedule.GatherProgram(ks...))
			for _, leg := range []struct {
				name string
				got  sim.Result
			}{
				{"resolve", sim.RunDesc(cfg, opts, d)},
				{"replay", sim.RunDesc(cfg, opts, d)},
				{"stream", sim.RunKernels(cfg, opts, d.Kernels()...)},
			} {
				if leg.got != want {
					t.Errorf("%s freeDY=%v %s: streamed %+v, gathered %+v", nd.name, free, leg.name, leg.got, want)
				}
			}
			if err := refmodel.Compare(want, refmodel.ReplaySchedules(cfg, refmodel.Options{FreeDYOnDW: free}, scheds...)); err != nil {
				t.Errorf("%s freeDY=%v: %v", nd.name, free, err)
			}
		}
	}
	if ph := sim.ResolvedPhaseStats(); ph.Replays == 0 {
		t.Error("no descriptor run replayed a resolved trace")
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
	checkNoPanels(t)
	if n := sim.ResolvedCacheStats().Entries; n != 0 {
		t.Errorf("fallback left %d resolved traces", n)
	}
	checkOraclePicks(t, cfg, p, base, ilv, order)
}

// TestTunerPanelMatchesOracle is the panel-path twin of
// TestTunerFallbackMatchesOracle: on a shape within the panel budget the
// tuners price their candidates from retained panel traces. Every tuner
// must still pick the oracle's candidate (the first on ties); every panel
// trace must replay to exactly the Result the one-shot engine produces for
// its gathered candidate, at two bandwidths; tuning must not touch the
// resolved-trace cache, while its panel resolutions join the cache's
// distinct census and phase split; and with two-phase execution disabled the tuners must
// build no panel and reach the same picks on the engine.
func TestTunerPanelMatchesOracle(t *testing.T) {
	cfg := config.SmallNPU()
	p := LayerParams(tensor.Dims{M: 96, K: 384, N: 160}, 1, cfg)
	if p.OpCount() > panelOpBudget {
		t.Fatalf("shape has %d ops, above the panel budget %d", p.OpCount(), panelOpBudget)
	}
	ResetCaches()
	defer ResetCaches()
	base, ilv, order := baselineChoices(cfg, p), interleaveChoices(cfg, p), BestOrderSimulated(cfg, p)
	rc, ph := sim.ResolvedCacheStats(), sim.ResolvedPhaseStats()
	if n := rc.Lookups(); n != 0 {
		t.Errorf("tuning made %d resolved-cache lookups; panels replay their own traces", n)
	}
	checkOraclePicks(t, cfg, p, base, ilv, order)

	single := cfg
	single.Cores = 1
	np := tuneParams(p)
	vs := mergeCandidates(np)
	if len(vs) <= len(dxOrders)*len(dwOrders) {
		t.Fatalf("shape explores %d fusion candidates, want more than one granularity", len(vs))
	}
	mergeWalks := make([]schedule.Walk, len(vs))
	for i, v := range vs {
		mergeWalks[i] = mergeWalk(v)
	}
	families := []struct {
		name  string
		cache *runner.Cache[panelKey, *panel]
		walks []schedule.Walk
	}{
		{"baseline", basePanels, baselineCandidates},
		{"merge", mergePanels, mergeWalks},
		{"major", majorPanels, []schedule.Walk{dxMajorWalk(single.SPMBytes, single.ElemBytes, np).w, dwMajorWalk(single.SPMBytes, single.ElemBytes, np).w}},
	}
	key := panelKey{p: np, spm: single.SPMBytes, elem: single.ElemBytes}
	costs := []config.NPU{single, single.WithBandwidth(single.DRAMBandwidth / 2)}
	traces := 0
	for _, f := range families {
		pn, ok := f.cache.Get(key)
		if !ok {
			t.Errorf("%s: tuning built no panel", f.name)
			continue
		}
		if len(pn.traces) != len(f.walks) {
			t.Fatalf("%s: panel holds %d traces for %d candidates", f.name, len(pn.traces), len(f.walks))
		}
		traces += len(pn.traces)
		b := schedule.NewBasis(np)
		for i, w := range f.walks {
			rt := pn.traces[i]
			if rt == nil {
				t.Errorf("%s[%d]: no trace retained", f.name, i)
				continue
			}
			prog := schedule.GatherProgram(schedule.Gather{B: b, W: w})
			for _, c := range costs {
				if got, want := rt.Replay(c), sim.RunProgram(c, sim.Options{}, prog); got != want {
					t.Errorf("%s[%d] at %g B/s: panel replay diverged from the engine:\n got %+v\nwant %+v",
						f.name, i, c.DRAMBandwidth, got, want)
				}
			}
		}
	}
	if rc.Entries != int64(traces) {
		t.Errorf("resolved-trace census %d, want the %d panel resolutions", rc.Entries, traces)
	}
	// Each panel build prices its own candidates from the resolve results;
	// the only replay is BestOrderSimulated's re-pricing of the fusion
	// winner from the merge panel interleaveChoices built.
	if ph.Resolutions != int64(traces) || ph.Replays != 1 {
		t.Errorf("tuning ran %d resolutions and %d replays, want %d and 1", ph.Resolutions, ph.Replays, traces)
	}

	prev := sim.SetResidencyCacheCap(0)
	defer sim.SetResidencyCacheCap(prev)
	ResetCaches()
	base0, ilv0, order0 := baselineChoices(cfg, p), interleaveChoices(cfg, p), BestOrderSimulated(cfg, p)
	checkNoPanels(t)
	if base0 != base || ilv0 != ilv || order0 != order {
		t.Errorf("engine-only tuning picked %+v %+v %v, panels picked %+v %+v %v",
			base0, ilv0, order0, base, ilv, order)
	}
}

// checkNoPanels fails the test if any panel family retained a panel.
func checkNoPanels(t *testing.T) {
	t.Helper()
	for _, c := range []interface{ Len() int }{basePanels, mergePanels, majorPanels} {
		if n := c.Len(); n != 0 {
			t.Errorf("tuning retained %d panels", n)
		}
	}
}

// checkOraclePicks requires each tuner's pick for p to be the candidate
// with the fewest refmodel oracle cycles over its emitted schedule, the
// first on ties.
func checkOraclePicks(t *testing.T, cfg config.NPU, p schedule.TileParams, base, ilv ordersVal, order Order) {
	t.Helper()
	single := cfg
	single.Cores = 1
	np := tuneParams(p)
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
		o, v := rearrangedChoices(single, np, orders[i])
		return rearrangedKernel(single.SPMBytes, single.ElemBytes, np, o, v).w
	})]; order != want {
		t.Errorf("access order %v, oracle picks %v", order, want)
	}
}

// TestProgDescIsPlainMemory guards the descriptor's layout: integers and
// booleans only, with no padding anywhere, so the resolved-trace cache
// hashes and compares it as one block of memory.
func TestProgDescIsPlainMemory(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			var end uintptr
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if f.Offset != end {
					t.Errorf("%s: %d bytes of padding before field %s", path, f.Offset-end, f.Name)
				}
				end = f.Offset + f.Type.Size()
				check(path+"."+f.Name, f.Type)
			}
			if end != typ.Size() {
				t.Errorf("%s: %d bytes of trailing padding", path, typ.Size()-end)
			}
		default:
			t.Errorf("%s is a %v, not plain memory", path, typ.Kind())
		}
	}
	check("progDesc", reflect.TypeOf(progDesc{}))
}
