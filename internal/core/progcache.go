package core

import (
	"fmt"
	"math"

	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

// Program descriptors (DESIGN.md §3k). The layer memo (memo.go) caches
// *outcomes*, so it only helps when the full (hardware fingerprint, shape,
// policy) point repeats. A serving workload's near-duplicate queries vary
// exactly the timing half of the fingerprint — DRAM bandwidth, latency,
// clock — while the tile streams stay identical: a final program depends
// on the configuration only through ElemBytes and SPMBytes (chunk sizing)
// plus the *tuned candidate choices*, never on how fast the simulated
// DRAM moves. A progDesc is that narrower identity as a comparable value,
// and sim.RunDesc keys the program's resolved trace on it, so a what-if
// bandwidth sweep resolves each program once and replays it under each
// timing. No program is retained: on a miss the descriptor's kernels are
// streamed from transient compiled op bases (schedule.Basis) along the
// tuned walks, the same walks BackwardKernels emits for traced runs.
//
// Soundness: the tuned candidates ARE bandwidth-dependent (the tuner
// simulates to pick them), so they are resolved first — through their own
// fingerprint-keyed caches — and included in the descriptor. Two
// configurations that tune to different candidates get different
// descriptors; two that tune alike share one. Tile ids are normalized
// (Layer/Part zeroed) exactly as in the layer memo: a bijective renaming
// of tile keys cannot change residency behaviour, so the shared trace's
// results are identical to a per-layer run — but trace labels would not
// be, which is why traced runs do not use shared descriptors.

// progDesc describes one final single-core program by content: a layer's
// backward or forward pass, or a partitioned plan's backward pass with the
// partitions as separate kernels. It holds every tuned choice, even where
// the walks Kernels derives would not tell two apart (the dX order of a
// dW-only pass). Its fields are unpadded integers, so the resolved-trace
// cache hashes it as one block of memory, not field by field.
type progDesc struct {
	shape  descShape // the layer, or a plan's parent
	spm    int64     // cfg.SPMBytes (0 forward): sizes the chunked majors
	elem   int       // cfg.ElemBytes: sizes every tile transfer
	ops    int
	parts  int                     // > 0: the plan PartitionLayer(shape, scheme, parts)
	tuned  [maxDescParts]ordersVal // tuned candidates (zero when none shape the stream), per part
	orders [maxDescParts]Order     // access order, per part of a plan
	fwd    bool
	pol    Policy
	skipDX bool
	scheme Scheme
}

// maxDescParts bounds the partitions of a descriptor's plan: single-core
// plans split into two or four.
const maxDescParts = 4

// descShape is a whole layer's tile parameters up to tensor ids, as plain
// integers (XFactor by its bits).
type descShape struct {
	dims    tensor.Dims
	tiling  schedule.Tiling
	elem    int
	xfactor uint64
}

// shapeOf returns p's descriptor shape, dropping its tensor ids. It
// rejects a partition: partial outputs move as accumulator traffic.
func shapeOf(p schedule.TileParams) descShape {
	if p.OffM != 0 || p.OffK != 0 || p.OffN != 0 || p.DXPartial || p.DWPartial {
		panic("core: a program descriptor's shape must be a whole layer")
	}
	return descShape{dims: p.Dims, tiling: p.Tiling, elem: p.ElemBytes, xfactor: math.Float64bits(p.XFactor)}
}

// params returns the canonical tile parameters of the shape.
func (s descShape) params() schedule.TileParams {
	return schedule.TileParams{Dims: s.dims, Tiling: s.tiling, ElemBytes: s.elem, XFactor: math.Float64frombits(s.xfactor)}
}

// Ops returns the program's op count.
func (d progDesc) Ops() int { return d.ops }

// Kernels builds the program's bases over the canonical shape — one
// symbol space — and returns its kernels.
func (d progDesc) Kernels() []schedule.Gather {
	p := d.shape.params()
	switch {
	case d.fwd:
		return gathers(schedule.NewForwardBasis(p), []kernelWalk{forwardWalk})
	case d.parts > 0:
		return d.planKernels(PartitionLayer(p, d.scheme, d.parts))
	}
	return gathers(schedule.NewBasis(p), layerKernels(d.spm, d.elem, p, d.pol, d.skipDX, d.orders[0], d.tuned[0]))
}

// planKernels returns the kernels of a partitioned descriptor over plan, a
// partitioning of its shape up to tensor ids: part i rearranged per choice
// i, the parts' bases built together.
func (d *progDesc) planKernels(plan Plan) []schedule.Gather {
	bases := schedule.NewBases(plan.Parts...)
	gs := make([]schedule.Gather, len(bases))
	for i, sub := range plan.Parts {
		k := rearrangedKernel(d.spm, d.elem, sub, d.orders[i], d.tuned[i])
		gs[i] = schedule.Gather{Name: k.name, B: bases[i], W: k.w}
	}
	return gs
}

// backwardChoices resolves the tuned choices of one layer's
// non-partitioned backward pass: the access order (OnlyInterleave unless
// rearranged) and the tuned candidates (zero when none shape the stream).
func backwardChoices(cfg config.NPU, p schedule.TileParams, pol Policy, skipDX bool) (Order, ordersVal) {
	switch {
	case skipDX, pol == PolBaseline:
		return OnlyInterleave, baselineChoices(cfg, p)
	case pol == PolInterleave:
		return OnlyInterleave, interleaveChoices(cfg, p)
	default: // PolRearrange and above
		return rearrangedChoices(cfg, p, BestOrderSimulated(cfg, p))
	}
}

// layerKernels returns the kernels of a layer's backward pass under
// resolved choices, sized for an SPM of spm bytes and elem-byte elements.
func layerKernels(spm int64, elem int, p schedule.TileParams, pol Policy, skipDX bool, o Order, v ordersVal) []kernelWalk {
	switch {
	case skipDX:
		return []kernelWalk{dwOnlyWalk(v)}
	case pol == PolBaseline:
		return baselineWalks(v)
	case pol == PolInterleave:
		return []kernelWalk{interleaveWalk(v)}
	default: // PolRearrange and above
		return []kernelWalk{rearrangedKernel(spm, elem, p, o, v)}
	}
}

// backwardDesc describes one layer's non-partitioned backward program.
// Every backward kernel set issues a dX and a dW op per grid point, a
// dW-only pass just the dW op.
func backwardDesc(cfg config.NPU, p schedule.TileParams, pol Policy, skipDX bool) progDesc {
	d := progDesc{shape: shapeOf(p), spm: cfg.SPMBytes, elem: cfg.ElemBytes, ops: 2 * p.OpCount(), pol: pol, skipDX: skipDX}
	if skipDX {
		d.ops = p.OpCount()
	}
	d.orders[0], d.tuned[0] = backwardChoices(cfg, p, pol, skipDX)
	return d
}

// forwardDesc describes one layer's forward program. The forward schedule
// depends on the tile parameters alone, so the descriptor carries no
// configuration fields beyond the element size already inside TileParams.
func forwardDesc(p schedule.TileParams) progDesc {
	return progDesc{shape: shapeOf(p), elem: p.ElemBytes, ops: p.OpCount(), fwd: true}
}

// partitionedDesc describes a single-core partitioned plan's program —
// partition i rearranged in its simulated-best order as kernel i — where
// plan is PartitionLayer(p, scheme, ·).
func partitionedDesc(cfg config.NPU, p schedule.TileParams, scheme Scheme, plan Plan) progDesc {
	if len(plan.Parts) > maxDescParts {
		panic(fmt.Sprintf("core: a single-core plan holds at most %d partitions, not %d", maxDescParts, len(plan.Parts)))
	}
	d := progDesc{shape: shapeOf(p), spm: cfg.SPMBytes, elem: cfg.ElemBytes, scheme: scheme, parts: len(plan.Parts)}
	for i, sub := range plan.Parts {
		d.orders[i], d.tuned[i] = rearrangedChoices(cfg, sub, BestOrderSimulated(cfg, sub))
		d.ops += 2 * sub.OpCount()
	}
	return d
}

// gathers names one kernel per walk over basis b.
func gathers(b *schedule.Basis, kernels []kernelWalk) []schedule.Gather {
	gs := make([]schedule.Gather, len(kernels))
	for i, k := range kernels {
		gs[i] = schedule.Gather{Name: k.name, B: b, W: k.w}
	}
	return gs
}

// Candidate-trace panels. The tuners (baselineChoices, interleaveChoices,
// BestOrderSimulated) re-simulate their candidate schedules for every
// hardware fingerprint, because the winner is timing-dependent — but the
// candidate *streams* themselves depend on the configuration only through
// SPMBytes (chunk sizing) and ElemBytes, exactly like the final programs
// above. That narrower key also fixes the residency capacity (SPMBytes/2),
// and tuners never enable study options, so it fixes each candidate's
// residency-resolved trace too (DESIGN.md §3l). A panel retains one
// canonical shape's candidate family as those traces — 8 B/op — so a
// bandwidth sweep's re-tuning
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
// repay. Oversized shapes stream-and-run-once instead: each tuner call
// lowers one transient basis and streams every candidate from it through
// the one-shot engine, reaching bit-identical tuning decisions (the candidate orders
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
// candidate streamed from it and resolved, and only the traces kept. The
// building tuner call prices its candidates from the resolved cycles
// rather than replaying what it just resolved. The panel is nil (tuners
// then stream each candidate once per call) when the shape's op grid exceeds
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
	fresh := &panel{traces: make([]*sim.ResolvedTrace, n)}
	f.built = make([]int64, n)
	for i := range fresh.traces {
		res, rt := sim.ResolveRetained(single, schedule.Gather{B: b, W: walk(i)})
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
