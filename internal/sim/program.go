package sim

import (
	"igosim/internal/config"
	"igosim/internal/schedule"
)

// Programs, streams and descriptors (DESIGN.md §3k). CompileSchedules
// produces a self-contained Program safe to retain and share. The
// simulator's own programs are never retained: each is a Desc, a
// comparable value that rebuilds the program's kernels from compiled op
// bases on demand, and RunDesc streams them through the engine, keying the
// program's resolved trace on the descriptor.

// CompileSchedules lowers the given kernels into a retained, immutable
// compiled program. The returned Program owns its code, kernel and
// tile-table storage: callers may cache it indefinitely and execute it
// concurrently from many goroutines (execution state lives in the engine,
// never in the program).
func CompileSchedules(scheds ...schedule.Schedule) *schedule.Program {
	prog := schedule.Compile(scheds...)
	return &prog
}

// RunProgram executes a compiled program on a fresh single-core engine,
// flushing the scratchpad at each kernel boundary — the compiled twin of
// RunSchedules for a program built once with CompileSchedules or gathered
// with schedule.GatherProgram. The program is read-only here; concurrent
// RunProgram calls on the same program are safe.
func RunProgram(cfg config.NPU, opts Options, prog *schedule.Program) Result {
	res, _ := pass(cfg, opts, prog, nil, false)
	return res
}

// RunKernels runs kernels ks — one symbol space, kernel i after kernel i-1
// with the scratchpad flushed between them — on a fresh single-core
// engine, computing each op from its basis as it goes: the Result of
// RunProgram on schedule.GatherProgram(ks...), with no program built.
func RunKernels(cfg config.NPU, opts Options, ks ...schedule.Gather) Result {
	res, _ := pass(cfg, opts, nil, ks, false)
	return res
}

// A Desc describes one program by content, so the program itself need
// never be retained. Its dynamic type must be comparable, and two equal
// descriptors must describe the same program up to a renaming of its
// tiles: RunDesc keys the program's resolved trace on the descriptor.
type Desc interface {
	// Ops returns the program's op count without building it.
	Ops() int
	// Kernels builds the program's bases — transiently — and returns its
	// kernels, all over one symbol space.
	Kernels() []schedule.Gather
}

// RunDesc runs the program d describes on a fresh single-core engine.
//
// Untraced calls go through two-phase execution (resolved.go): the first
// call for a (descriptor, SPM capacity, free-dY) key streams d's kernels
// through the engine once, resolving the residency trace; later calls
// replay it under whatever cost axes cfg carries — bit-identical to the
// engine, held by the replay-equivalence proptest and the replay-check
// gate. Traced calls, disabled caches (capacity 0) and programs above the
// admission bound stream d's kernels once; a traced run labels its events
// with the tile keys of d's bases.
func RunDesc(cfg config.NPU, opts Options, d Desc) Result {
	if opts.Trace == nil && resolvedCache.Cap() > 0 && d.Ops() <= maxCachedResolvedOps {
		key := resolvedKey{desc: d, capacity: cfg.SPMBytes / 2, freeDY: opts.FreeDYOnDW}
		if rt, ok := resolvedCache.Get(key); ok {
			return ReplayRetained(cfg, rt)
		}
		res, rt := pass(cfg, opts, nil, d.Kernels(), true)
		resolvedPhases.Resolution()
		if rt != nil {
			resolvedCache.Put(key, rt)
		}
		return res
	}
	return RunKernels(cfg, opts, d.Kernels()...)
}

// pass runs one single-core pass on a pooled engine (see
// compiledRunner.pass).
func pass(cfg config.NPU, opts Options, prog *schedule.Program, ks []schedule.Gather, record bool) (Result, *ResolvedTrace) {
	cr := compiledPool.Get()
	defer compiledPool.Put(cr)
	return cr.pass(cfg, opts, prog, ks, record)
}
