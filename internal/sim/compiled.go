package sim

import (
	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/spm"
	"igosim/internal/systolic"
	"igosim/internal/trace"
)

// Compiled execution (DESIGN.md §3g). schedule.Compile lowers a kernel
// sequence into a dense program — tile keys interned to int32 IDs, byte
// sizes, classes and protocol flags resolved per op — and CompiledEngine
// runs it against array-indexed residency state (spm.Residency): an
// intrusive doubly-linked LRU over the tile-ID space with no map lookups
// and no allocations in steady state. The refmodel oracle holds the engine
// to bit-exact agreement on every counter, and the trace goldens under
// testdata pin its event sequence byte for byte.

// CompiledEngine executes compiled ops on one NPU core; it is the engine
// behind RunSchedules, RunProgram and the streamed runs (RunKernels,
// RunDesc). Reuse pattern: Init (per configuration) -> RunProgram (per
// program), or Init -> runKernels for ops streamed from a basis; Result
// reads the accumulated outcome.
type CompiledEngine struct {
	cfg  config.NPU
	arr  systolic.Array
	chn  dram.Channel
	opts Options
	tr   *trace.Track // nil when tracing is disabled

	resv      spm.Residency
	liveBytes []int64 // active partial-sum bytes per tile ID (0 = not live)
	keys      []schedule.TileKey
	prog      *schedule.Program

	freeDY bool

	// tm/tk/tn/tileCycles are a last-value cache over the systolic cost:
	// tile dimensions repeat massively (only edge tiles differ), so step
	// calls TileCycles (and, when recording, looks the dimensions up in
	// the trace's table) only when they change.
	tm, tk, tn int32
	tileCycles int64

	// Trace recording (resolved.go): when rec is non-nil, step captures
	// each op's resolved transfer totals and recDim, the index of its tile
	// dimensions in the trace's table.
	rec    *ResolvedTrace
	recOK  bool
	recDim uint16

	memDone     int64
	compDone    int64
	prevCompEnd int64

	res Result
}

// NewCompiledEngine builds a compiled-path engine for cfg.
func NewCompiledEngine(cfg config.NPU, opts Options) *CompiledEngine {
	e := &CompiledEngine{}
	e.Init(cfg, opts)
	return e
}

// Init (re)configures the engine for cfg and opts, clearing all run state.
// It makes pooled reuse safe: after Init the engine is indistinguishable
// from a freshly constructed one.
func (e *CompiledEngine) Init(cfg config.NPU, opts Options) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e.cfg = cfg
	e.arr = systolic.New(cfg)
	e.chn = dram.Channel{
		BytesPerCycle: cfg.BytesPerCycle(),
		BurstLatency:  cfg.DRAMLatency,
	}
	// Half of the SPM is the double-buffer fill target; the residency set
	// models the other half (Section 2.2).
	e.resv.SetCapacity(cfg.SPMBytes / 2)
	e.opts = opts
	e.freeDY = opts.FreeDYOnDW
	e.tr = nil
	if opts.Trace != nil {
		label := opts.TraceLabel
		if label == "" {
			label = "engine"
		}
		e.tr = opts.Trace.NewTrack(label)
		e.tr.SetCapacity(e.resv.Capacity())
	}
	e.prog = nil
	e.keys = nil
	e.tm, e.tk, e.tn, e.tileCycles = -1, -1, -1, 0
	e.rec, e.recOK = nil, false
	e.recDim = 0
	e.resv.Stats = spm.Stats{}
	e.memDone, e.compDone, e.prevCompEnd = 0, 0, 0
	e.res = Result{}
}

// bindTable sizes the residency arrays to one symbol space.
func (e *CompiledEngine) bindTable(t schedule.TileTable) {
	n := t.Len()
	e.resv.Resize(n)
	if cap(e.liveBytes) >= n {
		e.liveBytes = e.liveBytes[:n]
	} else {
		e.liveBytes = make([]int64, n)
	}
	clear(e.liveBytes)
	e.keys = t.Keys
}

// Reset clears scratchpad contents, pipeline state and accumulated results,
// keeping the configuration and bound program.
func (e *CompiledEngine) Reset() {
	e.resv.Flush()
	e.resv.Stats = spm.Stats{}
	clear(e.liveBytes)
	e.memDone, e.compDone, e.prevCompEnd = 0, 0, 0
	e.res = Result{}
}

// flushSPM empties the scratchpad at a kernel boundary. Sequential
// execution frees each kernel's staged buffers, which is exactly why the
// conventional backward pass cannot reuse dY across the two gradient GEMMs
// (Section 3.2). A traced run records the emptied occupancy.
func (e *CompiledEngine) flushSPM() {
	e.resv.Flush()
	clear(e.liveBytes)
	if e.tr != nil {
		e.tr.Occupancy(e.memDone, 0)
	}
}

// Execute runs the bound program: kernels in order, scratchpad flushed at
// every kernel boundary, phase spans on the trace track.
func (e *CompiledEngine) Execute() {
	prog := e.prog
	if prog == nil {
		panic("sim: Execute before RunProgram")
	}
	for ki, k := range prog.Kernels {
		if ki > 0 {
			e.flushSPM()
		}
		start := e.compDone
		e.runOps(prog.Code[k.Start:k.End])
		e.tr.Phase(k.Name, start, e.compDone)
	}
}

// runKernels streams kernels ks — one symbol space — through the engine
// exactly as Execute runs the program GatherProgram would gather from
// them: each kernel's ops are computed from its basis into batch and
// stepped batch by batch, so no program is built. s is the caller's
// (pooled) stream state.
func (e *CompiledEngine) runKernels(ks []schedule.Gather, s *schedule.Stream, batch []schedule.CompiledOp) {
	if len(ks) == 0 {
		return
	}
	e.bindTable(ks[0].Table())
	for ki, k := range ks {
		schedule.CheckSameTable(ks[0].Table(), k.Table())
		if ki > 0 {
			e.flushSPM()
		}
		start := e.compDone
		s.Start(k)
		for n := s.Next(batch); n > 0; n = s.Next(batch) {
			e.runOps(batch[:n])
		}
		e.tr.Phase(k.Name, start, e.compDone)
	}
	*s = schedule.Stream{} // don't retain the basis
}

// runOps steps through one slice of ops.
func (e *CompiledEngine) runOps(code []schedule.CompiledOp) {
	for i := range code {
		e.step(&code[i])
	}
}

// RunProgram binds prog — the residency arrays sized to its tile table,
// run state (residency, pipeline, counters) kept, so it follows Init or
// Reset on a fresh measurement — and executes it.
func (e *CompiledEngine) RunProgram(prog *schedule.Program) {
	e.bindTable(prog.Table)
	e.prog = prog
	e.Execute()
}

// Result returns the accumulated result of all Execute calls since Reset.
func (e *CompiledEngine) Result() Result {
	r := e.res
	r.Cycles = e.compDone
	r.SPM = e.resv.Stats
	return r
}

// step executes a single compiled tile op through the two-stage pipeline.
// Spill write-backs are accounted separately from ordinary fetches and
// drains so the trace layer can attribute stall cycles to scratchpad
// pressure; the transfer timing itself depends only on the totals.
//
//lint:hotpath
func (e *CompiledEngine) step(op *schedule.CompiledOp) {
	if op.Tm != e.tm || op.Tk != e.tk || op.Tn != e.tn {
		e.tm, e.tk, e.tn = op.Tm, op.Tk, op.Tn
		e.tileCycles = e.arr.TileCycles(int(op.Tm), int(op.Tk), int(op.Tn))
		if e.rec != nil {
			e.recordDim()
		}
	}
	compCycles := e.tileCycles
	var fetchBytes, writeBytes, spillBytes int64
	var bursts, spillBursts int

	// Output (partial-sum) tile handling.
	out := op.Out
	if op.Flags&schedule.FlagOutFirst != 0 {
		if op.Flags&schedule.FlagOutLast == 0 {
			e.liveBytes[out] = op.OutBytes
		}
		e.insert(out, op.OutBytes, &spillBytes, &spillBursts)
	} else {
		if !e.resv.Touch(int32(out)) {
			// The partial was spilled earlier; bring it back.
			fetchBytes += op.OutBytes
			bursts++
			e.res.Traffic.AddRead(dram.ClassAcc, op.OutBytes)
			e.insert(out, op.OutBytes, &spillBytes, &spillBursts)
		}
	}
	if e.tr != nil {
		e.tr.Access(e.keys[out])
	}

	// Operand tiles.
	if e.tr != nil {
		e.tr.Access(e.keys[op.A])
	}
	if !e.resv.Touch(int32(op.A)) {
		if !(e.freeDY && op.Flags&schedule.FlagFreeDYA != 0) {
			fetchBytes += op.ABytes
			bursts++
			e.res.Traffic.AddRead(op.AClass, op.ABytes)
		}
		e.insert(op.A, op.ABytes, &spillBytes, &spillBursts)
	}
	if e.tr != nil {
		e.tr.Access(e.keys[op.B])
	}
	if !e.resv.Touch(int32(op.B)) {
		if !(e.freeDY && op.Flags&schedule.FlagFreeDYB != 0) {
			fetchBytes += op.BBytes
			bursts++
			e.res.Traffic.AddRead(op.BClass, op.BBytes)
		}
		e.insert(op.B, op.BBytes, &spillBytes, &spillBursts)
	}

	// Final accumulation: stream the finished output back to DRAM.
	if op.Flags&schedule.FlagOutLast != 0 {
		writeBytes += op.OutBytes
		bursts++
		e.res.Traffic.AddWrite(op.OutClass, op.OutBytes)
		if e.resv.Remove(int32(out)) && e.tr != nil {
			e.tr.Occupancy(e.memDone, e.resv.Used())
		}
		e.liveBytes[out] = 0
	}

	memCycles := e.chn.TransferCycles(fetchBytes+writeBytes+spillBytes, bursts+spillBursts)

	if e.rec != nil {
		e.record(fetchBytes+writeBytes+spillBytes, bursts+spillBursts)
	}

	// Double-buffered pipeline: the DMA may run at most one op ahead of the
	// compute stage (prefetch depth 2).
	memStart := max(e.memDone, e.prevCompEnd)
	memEnd := memStart + memCycles
	compStart := max(e.compDone, memEnd)
	compEnd := compStart + compCycles

	if e.tr != nil {
		e.tr.DMA(memStart, memCycles, fetchBytes, writeBytes, spillBytes, bursts+spillBursts)
		e.tr.Compute(op.Kind.String(), compStart, compCycles, int(op.Tm), int(op.Tk), int(op.Tn))
		e.tr.Stall(splitStall(e.chn, compStart-e.compDone, memCycles, spillBytes, spillBursts))
	}

	e.memDone = memEnd
	e.prevCompEnd = e.compDone
	e.compDone = compEnd

	e.res.ComputeCycles += compCycles
	e.res.MemCycles += memCycles
	e.res.Ops++
}

// insert places a tile in the residency set, charging spill writes for any
// live partial-sum tiles that get evicted. The occupancy sample precedes
// the spill instants in the trace.
//
//lint:hotpath
func (e *CompiledEngine) insert(id schedule.TileID, bytes int64, spillBytes *int64, spillBursts *int) {
	victims, changed := e.resv.Insert(int32(id), bytes)
	if !changed {
		return
	}
	if e.tr != nil {
		e.tr.Occupancy(e.memDone, e.resv.Used())
	}
	for _, v := range victims {
		vb := e.liveBytes[v]
		if vb == 0 {
			continue // clean operand tile: dropping it is free
		}
		*spillBytes += vb
		*spillBursts++
		e.res.Traffic.AddWrite(dram.ClassAcc, vb)
		e.res.Spills++
		e.tr.Spill(e.memDone, vb)
	}
}

// compiledRunner bundles the per-call state of the single-core entry
// points so a pooled runner executes a steady stream of calls with no
// per-call allocations: its buffers grow to the largest program a worker
// sees and are then reused.
type compiledRunner struct {
	eng    CompiledEngine
	comp   *schedule.Compiler
	prog   schedule.Program // RunSchedules' lowered program
	stream schedule.Stream
	batch  [streamBatch]schedule.CompiledOp
}

// streamBatch is how many ops a streamed run computes from its basis
// before stepping them (16 KiB, small enough to stay in cache).
const streamBatch = 256

var compiledPool = runner.NewPool(func() *compiledRunner {
	return &compiledRunner{comp: schedule.NewCompiler()}
})

// pass runs one single-core pass — prog when it is non-nil, else kernels
// ks streamed from their bases — and counts it. With record set it also
// returns the pass's resolved trace (nil when the pass does not fit the
// compact encoding). The runner keeps no reference to the program, the
// bases, the trace or the trace sink.
func (cr *compiledRunner) pass(cfg config.NPU, opts Options, prog *schedule.Program, ks []schedule.Gather, record bool) (Result, *ResolvedTrace) {
	e := &cr.eng
	e.Init(cfg, opts)
	if record {
		n := 0
		if prog != nil {
			n = prog.Ops()
		}
		for _, k := range ks {
			n += k.Len()
		}
		if n <= maxResolvedOps {
			e.rec, e.recOK = &ResolvedTrace{ops: make([]resolvedOp, 0, n)}, true
		}
	}
	if prog != nil {
		e.RunProgram(prog)
	} else {
		e.runKernels(ks, &cr.stream, cr.batch[:])
	}
	res := e.Result()
	var rt *ResolvedTrace
	if e.rec != nil && e.recOK {
		rt = e.rec
		rt.agg = res
		// The cycle fields are cost-point-dependent; replay recomputes them.
		rt.agg.Cycles, rt.agg.ComputeCycles, rt.agg.MemCycles = 0, 0, 0
	}
	e.rec, e.recOK = nil, false
	e.prog, e.keys, e.tr = nil, nil, nil
	countPass(res)
	return res, rt
}
