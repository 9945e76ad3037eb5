// Package schedule defines the tile-operation IR the simulator executes and
// generates the *baseline* schedules: forward-pass GEMMs and the
// conventional sequential backward pass (dX fully, then dW fully) that
// accelerators such as TPUv3+XLA use. The paper's transformed schedules are
// generated by internal/core on top of this IR.
package schedule

import (
	"fmt"

	"igosim/internal/dram"
	"igosim/internal/tensor"
)

// Kind labels which of the three training GEMMs an op belongs to.
type Kind uint8

const (
	KindFwd Kind = iota // Y = X x W
	KindDX              // dX = dY x W^T
	KindDW              // dW = X^T x dY
)

func (k Kind) String() string {
	switch k {
	case KindFwd:
		return "fwd"
	case KindDX:
		return "dX"
	case KindDW:
		return "dW"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// TileKey uniquely identifies one tile of one logical tensor. Tensor holds
// a caller-assigned instance id so that different layers (and different
// partition-private partial tensors) never alias in the scratchpad.
type TileKey struct {
	Class  dram.Class
	Tensor uint16
	Row    int32
	Col    int32
}

// Tile is a tile reference plus its transfer size.
type Tile struct {
	Key   TileKey
	Bytes int64
}

// Op is one tile-granularity multiply-accumulate: Out += A x B, where the
// tile GEMM has dimensions Tm x Tk x Tn.
type Op struct {
	A, B Tile
	Out  Tile
	// Tm, Tk, Tn are the (edge-clipped) tile GEMM dimensions.
	Tm, Tk, Tn int
	// OutFirst marks the first accumulation into Out: the engine allocates
	// the partial-sum tile in SPM without fetching it.
	OutFirst bool
	// OutLast marks the final accumulation: the engine writes Out back to
	// DRAM and frees it.
	OutLast bool
	Kind    Kind
}

// Schedule is an ordered tile-op stream for one layer computation.
type Schedule struct {
	Name string
	Ops  []Op
}

// Tiling fixes the tile dimensions used to decompose one GEMM.
type Tiling struct {
	Tm, Tk, Tn int
}

// Tiles returns ceil(dim/tile) for the given extent.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Counts returns the tile grid (Mt, Kt, Nt) for GEMM dims d.
func (t Tiling) Counts(d tensor.Dims) (mt, kt, nt int) {
	return ceilDiv(d.M, t.Tm), ceilDiv(d.K, t.Tk), ceilDiv(d.N, t.Tn)
}

// clip returns the extent of tile index i when the full dimension is dim and
// the tile size is tile (edge tiles are smaller).
func clip(i, tile, dim int) int {
	if (i+1)*tile <= dim {
		return tile
	}
	return dim - i*tile
}

// TileParams groups what generators need to emit ops for one layer (or for
// one partition of a layer: partitions carry tile-grid offsets into the
// parent tensors so shared tiles alias in the scratchpad and split tiles
// never do).
type TileParams struct {
	// Dims are the dimensions of the (sub-)GEMM being scheduled.
	Dims      tensor.Dims
	Tiling    Tiling
	ElemBytes int
	// Layer is the tensor-instance id base; the five tensors of the layer
	// use ids Layer*8+offset so different layers never alias.
	Layer uint16
	// OffM, OffK, OffN are tile-grid offsets of this partition within the
	// parent tensors (zero for an unpartitioned layer). Partition
	// boundaries are tile-aligned, so parent coordinates are offset+local.
	OffM, OffK, OffN int
	// DXPartial / DWPartial mark the corresponding output as a
	// partition-private partial sum: it is written back as intermediate
	// (accumulator-class) traffic under a partition-unique tensor id and
	// later combined by a reduction phase.
	DXPartial, DWPartial bool
	// Part is the partition index, used to derive partial tensor ids.
	Part int
	// XFactor scales X and dX tile traffic to the unique bytes behind the
	// im2col-expanded matrix (see workload.Layer.XReuse). Zero means 1.
	XFactor float64
}

// Tensor-instance id offsets within a layer.
const (
	idX uint16 = iota
	idW
	idY
	idDY
	idDX
	idDW
	idStride uint16 = 8
	// partialBase is where partition-private tensor ids start; canonical
	// ids stay below it (layers are limited to partialBase/idStride-1).
	partialBase uint16 = 1 << 12
	// MaxLayers bounds the layer ids TileParams supports.
	MaxLayers = int(partialBase/idStride) - 1
	// MaxPartitions bounds the partition indices PartialID supports.
	MaxPartitions = 14
)

// TensorID returns the instance id of one of the layer's tensors.
func (p *TileParams) TensorID(off uint16) uint16 {
	if int(p.Layer) > MaxLayers {
		panic(fmt.Sprintf("schedule: layer id %d exceeds MaxLayers %d", p.Layer, MaxLayers))
	}
	return p.Layer*idStride + off
}

// PartialID returns a partition-private tensor id, used for partial sums
// that must not alias the canonical tensor (e.g. per-partition dW partials
// under weight-sharing partitioning).
func (p *TileParams) PartialID(off uint16) uint16 {
	if p.Part < 0 || p.Part >= MaxPartitions {
		panic(fmt.Sprintf("schedule: partition index %d out of range", p.Part))
	}
	return partialBase*uint16(p.Part+1) + p.Layer*idStride + off
}

// tileBytes returns the byte size of an r x c tile.
func (p *TileParams) tileBytes(r, c int) int64 {
	return int64(r) * int64(c) * int64(p.ElemBytes)
}

// xTileBytes returns the unique DRAM bytes behind an r x c tile of the
// im2col-expanded X (or dX) matrix.
func (p *TileParams) xTileBytes(r, c int) int64 {
	b := p.tileBytes(r, c)
	if p.XFactor > 0 && p.XFactor < 1 {
		b = int64(float64(b) * p.XFactor)
		if b < 1 {
			b = 1
		}
	}
	return b
}

// MaxTileBytes returns the size of the largest tile p's ops touch: an
// interior X or dX tile (Tm×Tk, im2col-scaled), W or dW tile (Tk×Tn), or
// Y or dY tile (Tm×Tn). Edge tiles are clipped, so none is larger, and a
// partition of p reuses its tiling, so none of its tiles is either.
func (p TileParams) MaxTileBytes() int64 {
	tm := min(p.Tiling.Tm, p.Dims.M)
	tk := min(p.Tiling.Tk, p.Dims.K)
	tn := min(p.Tiling.Tn, p.Dims.N)
	return max(p.xTileBytes(tm, tk), p.tileBytes(tk, tn), p.tileBytes(tm, tn))
}

// XTile returns the X tile at local grid position (mo, ko).
func (p *TileParams) XTile(mo, ko int) Tile {
	r := clip(mo, p.Tiling.Tm, p.Dims.M)
	c := clip(ko, p.Tiling.Tk, p.Dims.K)
	return Tile{
		Key:   TileKey{Class: dram.ClassX, Tensor: p.TensorID(idX), Row: int32(p.OffM + mo), Col: int32(p.OffK + ko)},
		Bytes: p.xTileBytes(r, c),
	}
}

// WTile returns the W tile at local grid position (ko, no).
func (p *TileParams) WTile(ko, no int) Tile {
	r := clip(ko, p.Tiling.Tk, p.Dims.K)
	c := clip(no, p.Tiling.Tn, p.Dims.N)
	return Tile{
		Key:   TileKey{Class: dram.ClassW, Tensor: p.TensorID(idW), Row: int32(p.OffK + ko), Col: int32(p.OffN + no)},
		Bytes: p.tileBytes(r, c),
	}
}

// YTile returns the Y tile at local grid position (mo, no).
func (p *TileParams) YTile(mo, no int) Tile {
	r := clip(mo, p.Tiling.Tm, p.Dims.M)
	c := clip(no, p.Tiling.Tn, p.Dims.N)
	return Tile{
		Key:   TileKey{Class: dram.ClassY, Tensor: p.TensorID(idY), Row: int32(p.OffM + mo), Col: int32(p.OffN + no)},
		Bytes: p.tileBytes(r, c),
	}
}

// DYTile returns the dY tile at local grid position (mo, no). Partitions
// that share dY (ifmap-sharing) emit identical keys, so a tile loaded for
// one partition hits in the scratchpad for the others.
func (p *TileParams) DYTile(mo, no int) Tile {
	r := clip(mo, p.Tiling.Tm, p.Dims.M)
	c := clip(no, p.Tiling.Tn, p.Dims.N)
	return Tile{
		Key:   TileKey{Class: dram.ClassDY, Tensor: p.TensorID(idDY), Row: int32(p.OffM + mo), Col: int32(p.OffN + no)},
		Bytes: p.tileBytes(r, c),
	}
}

// DXTile returns the dX output tile at local grid position (mo, ko). When
// the partition only produces a partial dX (dY-sharing partitioning), the
// tile is redirected to a partition-private accumulator tensor.
func (p *TileParams) DXTile(mo, ko int) Tile {
	r := clip(mo, p.Tiling.Tm, p.Dims.M)
	c := clip(ko, p.Tiling.Tk, p.Dims.K)
	key := TileKey{Class: dram.ClassDX, Tensor: p.TensorID(idDX), Row: int32(p.OffM + mo), Col: int32(p.OffK + ko)}
	if p.DXPartial {
		key.Class = dram.ClassAcc
		key.Tensor = p.PartialID(idDX)
	}
	return Tile{Key: key, Bytes: p.xTileBytes(r, c)}
}

// DWTile returns the dW output tile at local grid position (ko, no). When
// the partition only produces a partial dW (weight-sharing partitioning),
// the tile is redirected to a partition-private accumulator tensor.
func (p *TileParams) DWTile(ko, no int) Tile {
	r := clip(ko, p.Tiling.Tk, p.Dims.K)
	c := clip(no, p.Tiling.Tn, p.Dims.N)
	key := TileKey{Class: dram.ClassDW, Tensor: p.TensorID(idDW), Row: int32(p.OffK + ko), Col: int32(p.OffN + no)}
	if p.DWPartial {
		key.Class = dram.ClassAcc
		key.Tensor = p.PartialID(idDW)
	}
	return Tile{Key: key, Bytes: p.tileBytes(r, c)}
}

// DXOp emits the dX accumulation step at grid point (mo, ko, no):
//
//	dX(mo,ko) += dY(mo,no) x W^T(no,ko)
//
// The transposed weight tile is the stored W tile (ko, no); the array reads
// it column-wise, which costs nothing extra in the timing model.
func (p *TileParams) DXOp(mo, ko, no, nt int) Op {
	tm := clip(mo, p.Tiling.Tm, p.Dims.M)
	tk := clip(no, p.Tiling.Tn, p.Dims.N) // reduction dim of dX GEMM is N
	tn := clip(ko, p.Tiling.Tk, p.Dims.K)
	return Op{
		A:        p.DYTile(mo, no),
		B:        p.WTile(ko, no),
		Out:      p.DXTile(mo, ko),
		Tm:       tm,
		Tk:       tk,
		Tn:       tn,
		OutFirst: no == 0,
		OutLast:  no == nt-1,
		Kind:     KindDX,
	}
}

// FwdOp emits the forward accumulation step at grid point (mo, ko, no):
//
//	Y(mo,no) += X(mo,ko) x W(ko,no)
func (p *TileParams) FwdOp(mo, ko, no, kt int) Op {
	return Op{
		A:        p.XTile(mo, ko),
		B:        p.WTile(ko, no),
		Out:      p.YTile(mo, no),
		Tm:       clip(mo, p.Tiling.Tm, p.Dims.M),
		Tk:       clip(ko, p.Tiling.Tk, p.Dims.K),
		Tn:       clip(no, p.Tiling.Tn, p.Dims.N),
		OutFirst: ko == 0,
		OutLast:  ko == kt-1,
		Kind:     KindFwd,
	}
}

// DWOp emits the dW accumulation step at grid point (ko, no, mo):
//
//	dW(ko,no) += X^T(ko,mo) x dY(mo,no)
func (p *TileParams) DWOp(ko, no, mo, mt int) Op {
	tm := clip(ko, p.Tiling.Tk, p.Dims.K)
	tk := clip(mo, p.Tiling.Tm, p.Dims.M) // reduction dim of dW GEMM is M
	tn := clip(no, p.Tiling.Tn, p.Dims.N)
	return Op{
		A:        p.XTile(mo, ko),
		B:        p.DYTile(mo, no),
		Out:      p.DWTile(ko, no),
		Tm:       tm,
		Tk:       tk,
		Tn:       tn,
		OutFirst: mo == 0,
		OutLast:  mo == mt-1,
		Kind:     KindDW,
	}
}

// Forward generates the forward-pass schedule Y = X x W with the standard
// output-stationary loop nest (m outer, n middle, k reduction inner).
func Forward(p TileParams) Schedule {
	return p.Schedule("forward", ForwardWalk())
}

// DXLoopOrder selects the outer-loop arrangement of the conventional dX
// GEMM (the reduction over N is always innermost, so every output tile is
// produced in one burst of accumulations — the standard output-stationary
// schedule).
type DXLoopOrder uint8

const (
	// DXOrderMK keeps the dY row band resident: m outer, k middle. W is
	// re-swept once per m-row unless it fits in SPM.
	DXOrderMK DXLoopOrder = iota
	// DXOrderKM keeps the W row band resident: k outer, m middle. dY is
	// re-swept once per k-column unless it fits in SPM.
	DXOrderKM
)

// DWLoopOrder selects the outer-loop arrangement of the conventional dW
// GEMM (reduction over M innermost).
type DWLoopOrder uint8

const (
	// DWOrderKN keeps the X column band resident: k outer, n middle. dY is
	// re-swept once per k-row unless it fits in SPM.
	DWOrderKN DWLoopOrder = iota
	// DWOrderNK keeps the dY column band resident: n outer, k middle. X is
	// re-swept once per n-column unless it fits in SPM.
	DWOrderNK
)

// BaselineDXOrdered generates the conventional dX schedule with the given
// loop order.
func BaselineDXOrdered(p TileParams, order DXLoopOrder) []Op {
	return p.Schedule("", BaselineDXWalk(order)).Ops
}

// BaselineDWOrdered generates the conventional dW schedule with the given
// loop order.
func BaselineDWOrdered(p TileParams, order DWLoopOrder) []Op {
	return p.Schedule("", BaselineDWWalk(order)).Ops
}

// BaselineDX generates the conventional dX schedule in its default
// row-major (dY row band resident) order.
func BaselineDX(p TileParams) []Op { return BaselineDXOrdered(p, DXOrderMK) }

// BaselineDW generates the conventional dW schedule in its default
// column-major (dY column-major walk) order.
func BaselineDW(p TileParams) []Op { return BaselineDWOrdered(p, DWOrderKN) }

// BaselineBackward generates the conventional sequential backward pass used
// by training accelerators such as TPUv3 with XLA (Figure 8a): the full dX
// GEMM followed by the full dW GEMM, each in its default loop order. The
// shared dY operand is therefore streamed from DRAM twice. Use
// core.TunedBaseline for the loop-order-tuned baseline the evaluation runs
// against.
func BaselineBackward(p TileParams) Schedule {
	return BaselineBackwardOrdered(p, DXOrderMK, DWOrderKN)
}

// BaselineBackwardOrdered generates the sequential backward pass with
// explicit per-GEMM loop orders.
func BaselineBackwardOrdered(p TileParams, dxo DXLoopOrder, dwo DWLoopOrder) Schedule {
	dx := BaselineDXOrdered(p, dxo)
	dw := BaselineDWOrdered(p, dwo)
	ops := make([]Op, 0, len(dx)+len(dw))
	ops = append(ops, dx...)
	ops = append(ops, dw...)
	return Schedule{Name: "baseline-sequential", Ops: ops}
}
