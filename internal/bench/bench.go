// Package bench defines the repo's end-to-end performance workload — the
// ResNet-50 backward pass on the large NPU configuration — as reusable
// *testing.B bodies. The same functions back BenchmarkCompiledEngine in
// internal/sim (run via `go test -bench`) and cmd/benchjson (which runs
// them through testing.Benchmark and writes BENCH_compiled.json), so the
// numbers tracked across PRs are the numbers the benchmark suite measures.
package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/refmodel"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/workload"
)

// Workload is one benchmarkable model: per-layer kernel sets plus the
// simulated DRAM traffic of a full pass (the b.SetBytes denominator).
type Workload struct {
	Cfg   config.NPU
	Model [][]schedule.Schedule
	// Params holds each layer's tile parameters.
	Params []schedule.TileParams
	Bytes  int64
}

// ResNet50Backward lowers the acceptance workload: every ResNet-50 layer's
// conventional dX and dW kernels on the large NPU configuration.
func ResNet50Backward() Workload {
	cfg := config.LargeNPU()
	m := workload.ResNet50()
	layers := m.Layers(cfg.Batch)
	w := Workload{Cfg: cfg, Model: make([][]schedule.Schedule, 0, len(layers))}
	for li, l := range layers {
		p := core.LayerParams(l.Dims, uint16(li+1), cfg)
		kernels := []schedule.Schedule{
			{Name: "dx", Ops: schedule.BaselineDX(p)},
			{Name: "dw", Ops: schedule.BaselineDW(p)},
		}
		if l.SkipDX {
			kernels = kernels[1:]
		}
		w.Model = append(w.Model, kernels)
		w.Params = append(w.Params, p)
	}
	for _, kernels := range w.Model {
		r := sim.RunSchedules(cfg, sim.Options{}, kernels...)
		w.Bytes += r.Traffic.TotalRead() + r.Traffic.TotalWrite()
	}
	return w
}

// Verify checks the engine agrees with the refmodel oracle on every layer
// before its speed is worth measuring.
func (w Workload) Verify() error {
	for i, kernels := range w.Model {
		got := sim.RunSchedules(w.Cfg, sim.Options{}, kernels...)
		want := refmodel.ReplaySchedules(w.Cfg, refmodel.Options{}, kernels...)
		if err := refmodel.Compare(got, want); err != nil {
			return fmt.Errorf("bench: layer %d: %w", i, err)
		}
	}
	return nil
}

// Pass returns a benchmark body measuring full passes (lower + execute)
// through RunSchedules.
func (w Workload) Pass() func(*testing.B) {
	return func(b *testing.B) {
		opts := sim.Options{}
		b.SetBytes(w.Bytes) // simulated DRAM bytes per full backward pass
		quiet(b, func() {
			for _, kernels := range w.Model {
				if r := sim.RunSchedules(w.Cfg, opts, kernels...); r.Ops == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// Steady returns a benchmark body for the compiled steady state: programs
// lowered once outside the loop, execution only inside it.
func (w Workload) Steady() func(*testing.B) {
	return func(b *testing.B) {
		progs := make([]schedule.Program, len(w.Model))
		for i, kernels := range w.Model {
			progs[i] = schedule.Compile(kernels...)
		}
		e := sim.NewCompiledEngine(w.Cfg, sim.Options{})
		b.SetBytes(w.Bytes)
		quiet(b, func() {
			for pi := range progs {
				e.Reset()
				e.RunProgram(&progs[pi])
				if e.Result().Ops == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// gatherCores are the core counts of the Gather benchmark's plans.
var gatherCores = []int{2, 4, 8}

// Gather returns a benchmark body for the compiled-op basis stage of the
// multi-core path: every layer's plan under every partitioning scheme at
// each of gatherCores lowered to bases, and each part's conventional dX
// and dW kernels gathered into its core's program. Plans are built
// outside the loop.
func (w Workload) Gather() func(*testing.B) {
	return func(b *testing.B) {
		var plans []core.Plan
		for _, p := range w.Params {
			for _, scheme := range core.Schemes() {
				for _, cores := range gatherCores {
					plans = append(plans, core.PartitionLayer(p, scheme, cores))
				}
			}
		}
		dx, dw := schedule.BaselineDXWalk(schedule.DXOrderMK), schedule.BaselineDWWalk(schedule.DWOrderKN)
		quiet(b, func() {
			for _, plan := range plans {
				for _, basis := range schedule.NewBases(plan.Parts...) {
					prog := schedule.GatherProgram(schedule.Gather{Name: "dx", B: basis, W: dx}, schedule.Gather{Name: "dw", B: basis, W: dw})
					if prog.Ops() == 0 {
						b.Fatal("empty program")
					}
				}
			}
		})
	}
}

// quiet runs body once per iteration, reporting allocations, with the
// garbage collector off and a forced collection before each iteration
// outside the timer. perf-check gates every row's allocs/op at 0.1%, and
// a GC cycle during the timed region both allocates runtime-internal
// objects the count includes and empties the pools the engine reuses, so
// with the collector on the count depends on when collections happen. A
// forced collection leaves each pool's values in its victim cache, so
// every iteration starts from the same pool state, and the heap never
// holds more than one iteration's garbage.
func quiet(b *testing.B, body func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		body()
	}
}
