package main

import (
	"fmt"
	"os"
	"time"

	"igosim/internal/analytic"
	"igosim/internal/config"
	"igosim/internal/core"
	imetrics "igosim/internal/metrics"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/stats"
)

// cell is one (configuration, model, policies) input of a workload, with
// the model already lowered to tile parameters.
type cell struct {
	cfg   config.NPU
	plans []core.LayerPlan
	pols  []core.Policy
	// bws lists further DRAM bandwidths (bytes/s) at which each resolved
	// program is replayed, as a bandwidth sweep re-prices one residency
	// trace; empty means the cell's own bandwidth only.
	bws []float64
}

// walkStats carries the counts the layer walk takes besides its spans.
type walkStats struct {
	checks, failed int   // replay-vs-resolve comparisons and mismatches
	compiledOps    int64 // ops lowered by schedule compilation
	replayedOps    int64 // ops re-priced by replay
	tuneReplays    int64 // replays issued inside tuner calls
}

// walk sends each distinct layer of the cells through the layers one at a
// time, in pipeline order, with a span around every call: partition plans,
// then the tuner entry points (so later emission spans exclude search),
// then emission, compilation, resolution and replay, then multi-core
// execution and reduction, then the analytic floors. It re-walks the
// workload's own inputs rather than instrumenting the program, so its
// per-layer split describes the work the workload's inputs imply, not the
// exact call sequence of the untraced run (which memoizes across layers).
func walk(tr *tracer, cells []cell) walkStats {
	type key struct {
		fp     config.Fingerprint
		p      schedule.TileParams
		skipDX bool
		pols   string
	}
	var ws walkStats
	seen := make(map[key]bool)
	for _, c := range cells {
		pols := fmt.Sprint(c.pols)
		for _, lp := range c.plans {
			p := lp.Params
			p.Layer = 0
			k := key{c.cfg.Fingerprint(), p, lp.Layer.SkipDX, pols}
			if seen[k] {
				continue
			}
			seen[k] = true
			walkLayer(tr, &ws, c, lp.Params, lp.Layer.SkipDX)
		}
	}
	return ws
}

func has(pols []core.Policy, pol core.Policy) bool {
	for _, p := range pols {
		if p == pol {
			return true
		}
	}
	return false
}

// walkLayer walks one layer of one cell.
func walkLayer(tr *tracer, ws *walkStats, c cell, p schedule.TileParams, skipDX bool) {
	cfg := c.cfg
	multi := cfg.Cores > 1
	partition := has(c.pols, core.PolPartition) && !skipDX

	// Partition plans: the schemes of Figure 11, split over the cores on a
	// multi-core NPU, or into 2 and 4 sequential parts on one core.
	var plans []core.Plan
	if partition {
		parts := []int{2, 4}
		if multi {
			parts = []int{cfg.Cores}
		}
		for _, scheme := range core.Schemes() {
			for _, n := range parts {
				id := tr.begin("core.partition")
				pl := core.PartitionLayer(p, scheme, n)
				tr.end(id)
				if len(pl.Parts) >= 2 {
					plans = append(plans, pl)
				}
			}
		}
	}
	var basePlan core.Plan
	if multi && (has(c.pols, core.PolBaseline) || skipDX) {
		id := tr.begin("core.partition")
		basePlan = core.PartitionLayer(p, core.WeightSharing, cfg.Cores)
		tr.end(id)
	}

	// Tuner entry points, on the whole layer and on every partition.
	tune := func(p schedule.TileParams, pols ...core.Policy) {
		before := sim.ResolvedPhaseStats().Replays
		id := tr.begin("core.tune")
		for _, pol := range pols {
			switch {
			case skipDX:
				core.TunedDWOnly(cfg, p)
			case pol == core.PolBaseline:
				core.TunedBaselineKernels(cfg, p)
			case pol == core.PolInterleave:
				core.TunedInterleave(cfg, p)
			default:
				core.BestOrderSimulated(cfg, p)
			}
		}
		tr.end(id)
		ws.tuneReplays += sim.ResolvedPhaseStats().Replays - before
	}
	if !multi {
		tune(p, c.pols...)
	}
	for _, pl := range plans {
		for _, sub := range pl.Parts {
			tune(sub, core.PolRearrange)
		}
	}
	for _, sub := range basePlan.Parts {
		tune(sub, core.PolBaseline)
	}

	if !multi {
		// Single core: every policy's backward program, emitted, compiled,
		// resolved and replayed; partitions run one after another.
		for _, pol := range c.pols {
			if pol == core.PolPartition {
				continue
			}
			id := tr.begin("core.emit")
			kernels, _ := core.BackwardKernels(cfg, p, pol, skipDX)
			tr.end(id)
			runProgram(tr, ws, c, kernels)
		}
		for _, pl := range plans {
			id := tr.begin("core.emit")
			streams := pl.PartitionStreams(cfg)
			tr.end(id)
			kernels := make([]schedule.Schedule, len(streams))
			for i, ops := range streams {
				kernels[i] = schedule.Schedule{Ops: ops}
			}
			runProgram(tr, ws, c, kernels)
			reduce(tr, cfg, pl)
		}
	} else {
		// Multi-core: the partitions run concurrently on the shared SPM;
		// the baseline runs its dX and dW kernels as synchronized phases
		// over private buffers.
		for _, pl := range plans {
			id := tr.begin("core.emit")
			streams := pl.PartitionStreams(cfg)
			tr.end(id)
			multicore(tr, cfg, [][][]schedule.Op{streams}, true)
			reduce(tr, cfg, pl)
		}
		if len(basePlan.Parts) > 0 {
			id := tr.begin("core.emit")
			var phases [][][]schedule.Op
			if skipDX {
				var streams [][]schedule.Op
				for _, sub := range basePlan.Parts {
					streams = append(streams, core.TunedDWOnly(cfg, sub).Ops)
				}
				phases = [][][]schedule.Op{streams}
			} else {
				phases = basePlan.BaselinePhases(cfg)
			}
			tr.end(id)
			multicore(tr, cfg, phases, false)
			reduce(tr, cfg, basePlan)
		}
	}

	id := tr.begin("analytic.floors")
	analytic.FloorsOf(cfg, p)
	tr.end(id)
}

// runProgram compiles kernels, resolves the program and replays the trace
// at the cell's own bandwidth and at every extra one. The replay at the
// resolving configuration must reproduce the resolved result exactly.
func runProgram(tr *tracer, ws *walkStats, c cell, kernels []schedule.Schedule) {
	id := tr.begin("schedule.compile")
	prog := sim.CompileSchedules(kernels...)
	tr.end(id)
	ws.compiledOps += int64(prog.Ops())

	id = tr.begin("sim.resolve")
	want, rt := sim.ResolveProgram(c.cfg, sim.Options{}, prog)
	tr.end(id)
	if rt == nil {
		return // not representable as a trace; the program runs on the engine
	}
	for i := -1; i < len(c.bws); i++ {
		cfg := c.cfg
		if i >= 0 {
			cfg = cfg.WithBandwidth(c.bws[i])
		}
		id := tr.begin("sim.replay")
		got := rt.Replay(cfg)
		tr.end(id)
		ws.replayedOps += int64(rt.Ops())
		if i < 0 {
			ws.checks++
			if got != want {
				ws.failed++
			}
		}
	}
}

func multicore(tr *tracer, cfg config.NPU, phases [][][]schedule.Op, shared bool) {
	id := tr.begin("sim.multicore")
	sim.RunMultiPhased(cfg, sim.Options{}, phases, shared)
	tr.end(id)
}

func reduce(tr *tracer, cfg config.NPU, pl core.Plan) {
	id := tr.begin("core.reduce")
	pl.ReduceResults(cfg)
	tr.end(id)
}

// tracedRun produces the per-layer metrics: a warm-up and an untraced
// reference repetition, a traced repetition with the program's timing
// counters on (cache, residency and runner counters, GC time), then the
// layer walk over the same inputs from cold caches.
//
//lint:walldomain host timings are the measurement itself
func tracedRun(o options, b bench) (result, error) {
	res := result{Metrics: map[string]metric{}}
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.name] = m.unit
		res.Metrics[m.name] = metric{0, m.unit}
	}
	put := func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			panic("perfbench: per-layer metric " + name + " missing from the perLayer table")
		}
		res.Metrics[name] = metric{v, unit}
	}
	tally := func(r repStats) {
		res.Attempted += r.ops
		res.Failed += r.failed
	}

	// The first repetition of a process pays heap growth and cold code;
	// it only warms up, so the reference and the traced repetition are
	// measured alike, on the same inputs.
	var ref repStats
	for k := 0; k < 2; k++ {
		coldStart()
		r, err := b.rep(nil, k)
		if err != nil {
			return result{}, err
		}
		tally(r)
		ref = r
	}

	coldStart()
	imetrics.Reset()
	prevTiming := imetrics.SetTiming(true)
	gc0 := readMetric("/cpu/classes/gc/total:cpu-seconds")
	tr := newTracer()
	root := tr.begin("rep")
	traced, err := b.rep(tr, 1)
	tr.end(root)
	gc1 := readMetric("/cpu/classes/gc/total:cpu-seconds")
	imetrics.SetTiming(prevTiming)
	if err != nil {
		return result{}, err
	}
	tally(traced)
	tracedTotal := tr.spans[root].end - tr.spans[root].start
	put("trace.total_s", tracedTotal.Seconds())
	put("trace.overhead", tracedTotal.Seconds()/ref.wall)
	put("runtime.gc_cpu_s", gc1-gc0)
	for name, v := range traced.layer {
		put(name, v)
	}
	putCounters(put, traced.wall, o.width)

	coldStart()
	wtr := newTracer()
	start := time.Now()
	ws := walk(wtr, b.cells())
	fmt.Fprintf(os.Stderr, "perfbench: %s layer walk: %.3f s, %d checks\n",
		o.workload, time.Since(start).Seconds(), ws.checks)
	res.Attempted += ws.checks
	res.Failed += ws.failed
	st := wtr.stats()
	spanCalls := func(metricName, spanName string) {
		put(metricName, float64(st[spanName].calls))
	}
	spanSelf := func(metricName, spanName string) {
		put(metricName, st[spanName].self.Seconds())
	}
	spanCalls("schedule.compile_calls", "schedule.compile")
	spanSelf("schedule.compile_s", "schedule.compile")
	put("schedule.compiled_ops", float64(ws.compiledOps))
	spanSelf("core.emit_s", "core.emit")
	spanCalls("core.tune_calls", "core.tune")
	spanSelf("core.tune_s", "core.tune")
	put("core.tune_replays", float64(ws.tuneReplays))
	spanCalls("core.partition_calls", "core.partition")
	spanSelf("core.partition_s", "core.partition")
	spanCalls("core.reduce_calls", "core.reduce")
	spanSelf("core.reduce_s", "core.reduce")
	spanCalls("sim.multicore_calls", "sim.multicore")
	spanSelf("sim.multicore_s", "sim.multicore")
	spanCalls("sim.resolve_calls", "sim.resolve")
	spanSelf("sim.resolve_s", "sim.resolve")
	spanCalls("sim.replay_calls", "sim.replay")
	spanSelf("sim.replay_s", "sim.replay")
	replayRate := 0.0
	if s := st["sim.replay"].self.Seconds(); s > 0 {
		replayRate = float64(ws.replayedOps) / s
	}
	put("sim.replay_ops_per_s", replayRate)
	spanCalls("analytic.floors_calls", "analytic.floors")
	spanSelf("analytic.floors_s", "analytic.floors")
	return res, nil
}

// putCounters reads the counters the program exports after the traced
// repetition: tuner, layer-memo and program caches from the stats
// registry, the residency cache, and the runner's task counters.
func putCounters(put func(string, float64), wall float64, width int) {
	byName := make(map[string]stats.CacheSnapshot)
	for _, s := range stats.CacheReport() {
		byName[s.Name] = s
	}
	var hits, lookups int64
	for _, n := range []string{"core/baseline-tune", "core/interleave-tune", "core/order-tune"} {
		hits += byName[n].Hits
		lookups += byName[n].Lookups()
	}
	put("core.tune_cache_hit_rate", ratio(hits, lookups))
	memo := byName["core/layer-sim"]
	put("core.layer_memo_hit_rate", memo.HitRate())
	put("core.layer_memo_entries", float64(memo.Entries))
	var progs int64
	for _, n := range []string{"core/compiled-prog", "core/partitioned-prog",
		"core/baseline-panel", "core/merge-panel", "core/major-panel"} {
		progs += byName[n].Entries
	}
	put("core.program_cache_entries", float64(progs))
	rc := sim.ResolvedCacheStats()
	put("sim.resolved_hit_rate", rc.HitRate())
	put("sim.resolved_evictions", float64(rc.Evictions))

	var tasks, taskP99, taskSumUs int64
	for _, s := range imetrics.Default().Snapshot() {
		switch s.Name {
		case "runner_tasks_total":
			tasks = s.Value
		case "runner_task_us":
			taskP99, taskSumUs = s.P99, s.Sum
		}
	}
	put("runner.tasks", float64(tasks))
	put("runner.task_p99_us", float64(taskP99))
	put("runner.utilization", float64(taskSumUs)/1e6/(wall*float64(width)))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A layer that does no work on a workload reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"schedule.compile_calls", "count"},
	{"schedule.compile_s", "s"},
	{"schedule.compiled_ops", "count"},
	{"core.emit_s", "s"},
	{"core.tune_calls", "count"},
	{"core.tune_s", "s"},
	{"core.tune_replays", "count"},
	{"core.tune_cache_hit_rate", "ratio"},
	{"core.layer_memo_hit_rate", "ratio"},
	{"core.layer_memo_entries", "count"},
	{"core.program_cache_entries", "count"},
	{"core.partition_calls", "count"},
	{"core.partition_s", "s"},
	{"core.reduce_calls", "count"},
	{"core.reduce_s", "s"},
	{"sim.multicore_calls", "count"},
	{"sim.multicore_s", "s"},
	{"sim.resolve_calls", "count"},
	{"sim.resolve_s", "s"},
	{"sim.replay_calls", "count"},
	{"sim.replay_s", "s"},
	{"sim.replay_ops_per_s", "1/s"},
	{"sim.resolved_hit_rate", "ratio"},
	{"sim.resolved_evictions", "count"},
	{"analytic.floors_calls", "count"},
	{"analytic.floors_s", "s"},
	{"dse.pruned_fraction", "ratio"},
	{"dse.simulated_points", "count"},
	{"runner.tasks", "count"},
	{"runner.task_p99_us", "us"},
	{"runner.utilization", "ratio"},
	{"serve.result_hit_rate", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.repeat_share", "ratio"},
	{"serve.latency_samples", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.total_s", "s"},
	{"trace.overhead", "ratio"},
}
