package core

import (
	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
)

// Compiled-program cache (DESIGN.md §3k). The layer memo (memo.go) caches
// *outcomes*, so it only helps when the full (hardware fingerprint, shape,
// policy) point repeats. A serving workload's near-duplicate queries vary
// exactly the timing half of the fingerprint — DRAM bandwidth, latency,
// clock — while the emitted tile streams stay identical: op emission
// depends on the configuration only through ElemBytes and SPMBytes (chunk
// sizing) plus the *tuned candidate choices*, never on how fast the
// simulated DRAM moves. Caching the compiled program under that narrower
// key means a what-if bandwidth sweep builds each program once and replays
// the same dense program under each timing. Programs are never emitted as
// []Op: each is gathered from the shape's compiled op basis along the
// tuned kernels' walks (schedule.Basis, DESIGN.md §3k), the same walks
// BackwardKernels emits for traced single-core runs.
//
// Soundness: the tuned candidates ARE bandwidth-dependent (the tuner
// simulates to pick them), so they are resolved first — through their own
// fingerprint-keyed caches — and included in the key. Two configurations
// that tune to different candidates get different programs; two that tune
// alike share one. Tile ids are normalized (Layer/Part zeroed) exactly as
// in the layer memo: a bijective renaming of tile keys cannot change
// residency behaviour, so the shared program's results are identical to a
// per-layer compilation — but its trace labels would not be, which is why
// the cache is bypassed for traced runs.

// progKey identifies one compiled kernel sequence up to tensor renaming
// and hardware timing.
type progKey struct {
	p      schedule.TileParams // Layer/Part zeroed
	spm    int64               // cfg.SPMBytes: sizes baseline/fused chunks
	elem   int                 // cfg.ElemBytes: sizes every tile transfer
	kind   memoKind
	pol    Policy
	order  Order
	skipDX bool
	tuned  ordersVal // zero when the stream uses no tuned candidates
}

var progCache = runner.NewCache[progKey, *schedule.Program]("core/compiled-prog")

// useProgramCache reports whether a RunBackward/RunForward call can go
// through the shared compiled-program cache: only untraced runs can (a
// shared program carries normalized tile ids, which results are invariant
// to but trace labels are not).
func useProgramCache(opts sim.Options) bool {
	return opts.Trace == nil
}

// backwardProgram returns the retained compiled program for one layer's
// non-partitioned backward pass, sharing it across layers and hardware
// timings that emit the same stream. The access order is resolved the same
// way BackwardKernels resolves it, and the program is gathered from one
// basis of the normalized shape.
func backwardProgram(cfg config.NPU, p schedule.TileParams, pol Policy, skipDX bool) (*schedule.Program, Order) {
	np := p
	np.Layer, np.Part = 0, 0
	key := progKey{
		p: np, spm: cfg.SPMBytes, elem: cfg.ElemBytes,
		kind: memoBackward, pol: pol, skipDX: skipDX,
		order: OnlyInterleave,
	}
	switch {
	case skipDX, pol == PolBaseline:
		key.tuned = baselineChoices(cfg, np)
	case pol == PolInterleave:
		key.tuned = interleaveChoices(cfg, np)
	default: // PolRearrange and above
		key.order = BestOrderSimulated(cfg, np)
		if key.order == OnlyInterleave {
			key.tuned = interleaveChoices(cfg, np)
		}
	}
	// Shared (canonical) result: the program pointer keys the sim layer's
	// resolved-trace cache, so a miss race must converge on one pointer per
	// logical program or the distinct-key census would vary with -j.
	prog := progCache.GetOrComputeShared(key, func() *schedule.Program {
		kernels, _ := backwardWalks(cfg, np, pol, skipDX)
		return gatherKernels(schedule.NewBasis(np), kernels)
	})
	return prog, key.order
}

// gatherKernels gathers one program with a kernel per walk from basis b.
func gatherKernels(b *schedule.Basis, kernels []kernelWalk) *schedule.Program {
	gs := make([]schedule.Gather, len(kernels))
	for i, k := range kernels {
		gs[i] = schedule.Gather{Name: k.name, B: b, W: k.w}
	}
	return schedule.GatherProgram(gs...)
}

// forwardProgram returns the retained compiled program for one layer's
// forward pass. The forward schedule depends on the tile parameters alone,
// so the key carries no configuration fields beyond the element size
// already inside TileParams.
func forwardProgram(p schedule.TileParams) *schedule.Program {
	np := p
	np.Layer, np.Part = 0, 0
	key := progKey{p: np, elem: np.ElemBytes, kind: memoForward}
	return progCache.GetOrComputeShared(key, func() *schedule.Program {
		return gatherKernels(schedule.NewForwardBasis(np), []kernelWalk{forwardWalk})
	})
}

// ProgramCacheLen returns the number of retained compiled programs (tests
// and the serving layer's diagnostics read it).
func ProgramCacheLen() int { return progCache.Len() }

// Candidate-trace panels. The tuners (baselineChoices, interleaveChoices,
// BestOrderSimulated) re-simulate their candidate schedules for every
// hardware fingerprint, because the winner is timing-dependent — but the
// candidate *streams* themselves depend on the configuration only through
// SPMBytes (chunk sizing) and ElemBytes, exactly like the tuned programs
// above. That narrower key also fixes the residency capacity (SPMBytes/2),
// and tuners never enable study options, so it fixes each candidate's
// residency-resolved trace too (DESIGN.md §3l). A panel retains one
// canonical shape's candidate family as those traces — 8 B/op, against
// the 56 B/op of a compiled program — so a bandwidth sweep's re-tuning
// does ONE cache lookup per family and then replays. (An earlier revision
// keyed each candidate individually; hashing the wide per-candidate key
// ~30k times per sweep cost as much as the replays it guarded.) Panels
// are per tuner family — baseline orders, fusion set, chunked majors —
// and built only when that tuner first reaches the shape.

// panelKey identifies one shape's candidate panel up to tensor renaming
// and hardware timing.
type panelKey struct {
	p    schedule.TileParams // Layer/Part zeroed
	spm  int64
	elem int
}

// panel holds one family's candidate traces in the family's exploration
// order. A nil trace did not fit the compact trace encoding; the tuner
// prices that candidate on the engine instead.
type panel struct {
	traces []*sim.ResolvedTrace
}

var (
	basePanels  = runner.NewCache[panelKey, *panel]("core/baseline-panel")
	mergePanels = runner.NewCache[panelKey, *panel]("core/merge-panel")
	majorPanels = runner.NewCache[panelKey, *panel]("core/major-panel")
)

// panelOpBudget bounds the single-GEMM op count up to which candidate
// panels are resolved and retained. A panel pays off when the same shape
// is re-tuned under many hardware fingerprints (bandwidth sweeps), whose
// shapes are small; for the huge op grids of tiny-SPM configurations (the
// GPU validation study's 128 KB buffer) retaining a dozen multi-megabyte
// candidate traces per shape grows the heap far faster than the replays
// repay. Oversized shapes gather-and-run-once instead: each tuner call
// lowers one transient basis and prices every candidate on the one-shot
// engine, reaching bit-identical tuning decisions (the candidate orders
// match and the two paths are property-tested equal).
const panelOpBudget = 1 << 13

// family is one candidate family as a tuner call sees it: the panel (nil
// without one), the cycles its build resolved when this call built it
// (nil otherwise), and the candidates' walks.
type family struct {
	pn    *panel
	built []int64
	walk  func(i int) schedule.Walk
}

// panelFor returns np's view of one family, whose n candidates walk lists,
// building the family's panel on first use: one transient basis, each
// candidate gathered into one reused program buffer and resolved, and only
// the traces kept. The building tuner call prices its candidates from the
// resolved cycles rather than replaying what it just resolved. The panel
// is nil (tuners then gather per call) when the shape's op grid exceeds
// the panel budget or two-phase execution is disabled
// (sim.SetResidencyCacheCap(0): every candidate then runs on the engine).
func panelFor(cache *runner.Cache[panelKey, *panel], single config.NPU, np schedule.TileParams, n int, walk func(i int) schedule.Walk) family {
	f := family{walk: walk}
	if np.OpCount() > panelOpBudget || sim.ResidencyCacheCap() == 0 {
		return f
	}
	key := panelKey{p: np, spm: single.SPMBytes, elem: single.ElemBytes}
	var ok bool
	if f.pn, ok = cache.Get(key); ok {
		return f
	}
	b := schedule.NewBasis(np)
	prog := &schedule.Program{}
	fresh := &panel{traces: make([]*sim.ResolvedTrace, n)}
	f.built = make([]int64, n)
	for i := range fresh.traces {
		schedule.GatherInto(prog, schedule.Gather{B: b, W: walk(i)})
		res, rt := sim.ResolveRetained(single, prog)
		fresh.traces[i], f.built[i] = rt, res.Cycles
	}
	// A miss race resolves the family twice but publishes it once; only the
	// published panel joins the resolved-trace census, so the census is the
	// same at any -j.
	if f.pn = cache.PutIfAbsent(key, fresh); f.pn == fresh {
		sim.NoteRetained(n)
	}
	return f
}

// tuneParams canonicalizes tile parameters to the equivalence the tuning
// caches already declare (ordersKey keys on dims/tiling/elem/xfactor
// only): tensor-instance ids, partition offsets and partial-output
// redirection are bijective tile renamings that cannot change residency
// or cycle outcomes. Tuning closures emit candidates from the canonical
// representative so the candidate-program census does not depend on which
// equivalent variant reached the tuner first (a -j determinism property
// the manifest gate checks).
func tuneParams(p schedule.TileParams) schedule.TileParams {
	p.Layer, p.Part = 0, 0
	p.OffM, p.OffK, p.OffN = 0, 0, 0
	p.DXPartial, p.DWPartial = false, false
	return p
}

// partKey identifies one single-core partitioned plan's compiled program
// up to tensor renaming and hardware timing: the parent shape, the plan
// axes, and the per-part tuned choices (access order, and for interleave
// orders the fused-stream candidates) that shape each part's stream.
type partKey struct {
	p      schedule.TileParams // Layer/Part zeroed (parent)
	spm    int64
	elem   int
	scheme Scheme
	parts  int
	orders [4]Order
	tuned  [4]ordersVal
}

var partCache = runner.NewCache[partKey, *schedule.Program]("core/partitioned-prog")

// partitionedProgram returns the retained compiled program for one
// single-core partitioned plan (partitions as separate kernels, scratchpad
// flushed between them). The per-part tuned choices are resolved first and
// folded into the key, mirroring backwardProgram; plans with more parts
// than the key holds are not cached (ok=false).
func partitionedProgram(cfg config.NPU, p schedule.TileParams, scheme Scheme, parts int, plan Plan) (*schedule.Program, []Order, bool) {
	if len(plan.Parts) > len(partKey{}.orders) {
		return nil, nil, false
	}
	// Same size discipline as the candidate panels: retaining a compiled
	// program per huge-grid plan would pin more memory than replays repay.
	if p.OpCount() > panelOpBudget {
		return nil, nil, false
	}
	np := p
	np.Layer, np.Part = 0, 0
	key := partKey{
		p: np, spm: cfg.SPMBytes, elem: cfg.ElemBytes,
		scheme: scheme, parts: len(plan.Parts),
	}
	orders := make([]Order, len(plan.Parts))
	for i, sub := range plan.Parts {
		o := BestOrderSimulated(cfg, sub)
		orders[i] = o
		key.orders[i] = o
		if o == OnlyInterleave {
			key.tuned[i] = interleaveChoices(cfg, sub)
		}
	}
	prog := partCache.GetOrComputeShared(key, func() *schedule.Program {
		// Rebuild from the normalized parent so the retained program's tile
		// ids are canonical regardless of which layer resolved it first.
		return gatherRearranged(cfg, PartitionLayer(np, scheme, parts), orders)
	})
	return prog, orders, true
}

// gatherRearranged gathers a plan's parts as the kernels of one program,
// part i rearranged in orders[i], from bases sharing one symbol space as
// one compilation would.
func gatherRearranged(cfg config.NPU, plan Plan, orders []Order) *schedule.Program {
	bases := schedule.NewBases(plan.Parts...)
	gs := make([]schedule.Gather, len(plan.Parts))
	for i, sub := range plan.Parts {
		k, _ := rearrangedWalk(cfg, sub, orders[i])
		gs[i] = schedule.Gather{Name: k.name, B: bases[i], W: k.w}
	}
	return schedule.GatherProgram(gs...)
}
