package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"igosim/internal/config"
	"igosim/internal/schedule"
	"igosim/internal/tensor"
	"igosim/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden trace files")

// tightCfg shrinks the scratchpad below the test layers' working sets so the
// oracle comparison covers evictions, spills and fetch-backs.
func tightCfg() config.NPU {
	cfg := testCfg()
	cfg.SPMBytes = 1 << 10
	return cfg
}

// burstCfg adds DRAM burst latency so per-op burst counts matter.
func burstCfg() config.NPU {
	cfg := testCfg()
	cfg.DRAMLatency = 7
	return cfg
}

// testKernelSets enumerates schedule sequences covering the protocol space:
// multi-kernel flushes, fused interleaving, chunked partials and edge tiles.
func testKernelSets() map[string][]schedule.Schedule {
	p := params(tensor.Dims{M: 16, K: 16, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	// Uneven dims produce edge tiles with distinct byte sizes and systolic
	// costs.
	pe := params(tensor.Dims{M: 18, K: 13, N: 10}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	return map[string][]schedule.Schedule{
		"baseline-two-kernels": {
			{Name: "dx", Ops: schedule.BaselineDX(p)},
			{Name: "dw", Ops: schedule.BaselineDW(p)},
		},
		"paired-interleave": {
			{Name: "fused", Ops: pairedBackward(p)},
		},
		"chunked-partials": {
			{Name: "dx", Ops: schedule.PartialStationaryDX(p, 2)},
			{Name: "dw", Ops: schedule.PartialStationaryDWCols(p, 2)},
		},
		"edge-tiles": {
			{Name: "dx", Ops: schedule.PartialStationaryDXCols(pe, 2)},
			{Name: "dw", Ops: schedule.PartialStationaryDW(pe, 2)},
			{Name: "fused", Ops: pairedBackward(pe)},
		},
	}
}

// TestCompiledSpillsUnderPressure guards that the oracle comparison
// (TestCompiledMatchesInterpreter) and the trace goldens are not vacuous:
// the tight configuration must actually exercise spills.
func TestCompiledSpillsUnderPressure(t *testing.T) {
	scheds := testKernelSets()["paired-interleave"]
	r := RunSchedules(tightCfg(), Options{}, scheds...)
	if r.Spills == 0 {
		t.Fatal("tight config no longer spills — shrink its SPM so the oracle comparison and trace goldens keep covering spill paths")
	}
	if r.SPM.Evictions == 0 {
		t.Fatal("tight config no longer evicts")
	}
}

// TestCompiledTraceParity compares the full trace-event export byte for
// byte against goldens recorded while the interpreter still ran beside the
// compiled engine and both emitted this exact event sequence. Regenerate
// with `go test ./internal/sim -run TraceParity -update` and review the
// diff.
func TestCompiledTraceParity(t *testing.T) {
	for kname, scheds := range testKernelSets() {
		sink := trace.New()
		RunSchedules(tightCfg(), Options{Trace: sink, TraceLabel: "parity"}, scheds...)
		if err := sink.Check(); err != nil {
			t.Fatalf("%s: %v", kname, err)
		}
		checkTraceGolden(t, "trace_"+kname, sink)
	}
}

// checkTraceGolden compares sink's Chrome trace export with
// testdata/<name>.golden.json, rewriting the file under -update.
func checkTraceGolden(t *testing.T, name string, sink *trace.Sink) {
	t.Helper()
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: missing golden file (regenerate with -update): %v", name, err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("%s: trace JSON drifted from %s (regenerate with -update and review)", name, path)
	}
}

// multiPhases builds a two-core, two-phase workload where both cores touch
// the same dY tiles (shared-hit coverage) and the scratchpad is under
// pressure.
func multiPhases() [][][]schedule.Op {
	p := params(tensor.Dims{M: 16, K: 16, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	return [][][]schedule.Op{
		{schedule.BaselineDX(p), schedule.BaselineDXOrdered(p, schedule.DXOrderKM)},
		{schedule.BaselineDW(p), schedule.BaselineDWOrdered(p, schedule.DWOrderNK)},
	}
}

// TestCompiledMultiTraceParity is TestCompiledTraceParity for the
// multi-core path (per-core tracks, per-buffer occupancy tracks, phases).
func TestCompiledMultiTraceParity(t *testing.T) {
	cfg := testCfg()
	cfg.Cores = 2
	cfg.SPMBytes = 1 << 10
	for _, shared := range []bool{true, false} {
		sink := trace.New()
		RunMultiPhased(cfg, Options{Trace: sink, TraceLabel: "mparity"}, multiPhases(), shared)
		if err := sink.Check(); err != nil {
			t.Fatalf("shared=%v: %v", shared, err)
		}
		name := "multitrace_private"
		if shared {
			name = "multitrace_shared"
		}
		checkTraceGolden(t, name, sink)
	}
}

// TestCompiledEngineReuse checks that a pooled engine re-initialized for a
// new configuration and program carries nothing over from the previous run.
func TestCompiledEngineReuse(t *testing.T) {
	big := testKernelSets()["edge-tiles"]
	small := testKernelSets()["baseline-two-kernels"]

	fresh := NewCompiledEngine(tightCfg(), Options{})
	progSmall := schedule.Compile(small...)
	fresh.RunProgram(&progSmall)
	want := fresh.Result()

	reused := NewCompiledEngine(burstCfg(), Options{FreeDYOnDW: true})
	progBig := schedule.Compile(big...)
	reused.RunProgram(&progBig)
	reused.Init(tightCfg(), Options{})
	reused.RunProgram(&progSmall)
	if got := reused.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("reused engine %+v != fresh engine %+v", got, want)
	}
}
