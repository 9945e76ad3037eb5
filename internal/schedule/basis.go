package schedule

import (
	"fmt"

	"igosim/internal/dram"
)

// Compiled op bases (DESIGN.md §3k). A layer shape's backward pass has
// exactly 2·mt·kt·nt distinct tile ops: the dX op and the dW op of every
// grid point. Every candidate schedule the tuners explore is a reordering
// of that set, and each of those ops — its tile ids included — is a pure
// function of its kind and grid point (mo, ko, no). So a Basis stores no
// ops: it keeps per-axis tables (clipped tile extents, X/dX tile bytes)
// and one dense id layout per tensor, and every candidate program is a
// gather that computes each op from its step along the candidate's walk:
// no op is emitted, merged or interned per candidate.
//
// A gathered program's TileIDs follow the basis' layout (each tensor's
// tiles row-major over its bounding box), not the candidate's
// first-appearance order. Residency is an LRU over those ids whose
// decisions depend only on access order, so the renaming is bijective and
// cannot change any result; the basis-gather property suite holds gathered
// programs to the emitted schedules up to exactly that bijection.

// Basis is one shape's compiled op basis: the tables from which any of its
// ops is computed. A backward basis computes the dX and dW op of every
// grid point; a forward basis computes the forward op.
type Basis struct {
	grid Grid
	fwd  bool
	// clipM, clipK and clipN hold the clipped tile extent at each grid
	// index of M, K and N.
	clipM, clipK, clipN []int32
	// xBytes holds the X (and dX) tile bytes at mo·kt+ko: the im2col scale
	// rounds per tile, so they do not factor per axis.
	xBytes []int64
	elem   int64
	// ids lays out each tensor the basis touches over local coordinates.
	ids              [numRoles]idMap
	dxClass, dwClass dram.Class
	table            TileTable
}

// idMap lays one tensor's tiles out as dense ids: the tile at local
// coordinates (r, c) is id base + r·stride + c.
type idMap struct{ base, stride int }

func (m idMap) at(r, c int) TileID { return TileID(m.base + r*m.stride + c) }

// tensorRole names one tensor a layer's ops touch: the tile accessor that
// keys it and the grid axes that index its rows and columns.
type tensorRole struct {
	tile       func(p *TileParams, r, c int) Tile
	rows, cols Axis
}

const (
	roleX = iota
	roleW
	roleY
	roleDY
	roleDX
	roleDW
	numRoles
)

var roles = [numRoles]tensorRole{
	roleX:  {(*TileParams).XTile, AxisM, AxisK},
	roleW:  {(*TileParams).WTile, AxisK, AxisN},
	roleY:  {(*TileParams).YTile, AxisM, AxisN},
	roleDY: {(*TileParams).DYTile, AxisM, AxisN},
	roleDX: {(*TileParams).DXTile, AxisM, AxisK},
	roleDW: {(*TileParams).DWTile, AxisK, AxisN},
}

// The tensors each layout lays out, in id order: backward ops never touch
// Y and forward ops touch only X, W and Y, so neither table holds tiles
// its ops cannot reach.
var (
	backwardLayout = []int{roleX, roleW, roleDY, roleDX, roleDW}
	forwardLayout  = []int{roleX, roleW, roleY}
)

// NewBasis builds p's backward basis.
func NewBasis(p TileParams) *Basis { return NewBases(p)[0] }

// NewBases builds several shapes' backward bases over one symbol space: a
// tile the shapes share (partitions of one layer) carries one TileID in
// all of them, and GatherProgram may combine their kernels into one
// program. Each tensor's ids cover its tiles' bounding box across the
// shapes, which the shapes must fill (partitions of one layer do); a gap
// would be an id no op reaches, so NewBases panics naming the tensor.
func NewBases(ps ...TileParams) []*Basis { return newBases(false, ps) }

// NewForwardBasis builds p's forward basis.
func NewForwardBasis(p TileParams) *Basis { return NewForwardBases(p)[0] }

// NewForwardBases is NewBases for the forward op: its table holds X, W
// and Y tiles only.
func NewForwardBases(ps ...TileParams) []*Basis { return newBases(true, ps) }

// boxTensor is one tensor of a symbol space: its key, its tile bounding
// box in parent coordinates, how many blocks of it the shapes touch, and
// its first id.
type boxTensor struct {
	key              TileKey // Class and Tensor; Row and Col are the box origin
	rowEnd, colEnd   int32
	blocks           int
	base, rows, cols int
}

// tileBlock is the block of one tensor's tiles one shape touches.
type tileBlock struct {
	tensor               int
	row, col, rows, cols int
}

func newBases(fwd bool, ps []TileParams) []*Basis {
	layout := backwardLayout
	if fwd {
		layout = forwardLayout
	}
	// Collect each tensor's blocks and bounding box, tensors in order of
	// first appearance.
	ts := make([]boxTensor, 0, len(layout)*len(ps))
	blocks := make([]tileBlock, 0, len(layout)*len(ps))
	at := make([][numRoles]int, len(ps)) // tensor index per shape and role
	for i := range ps {
		p := &ps[i]
		g := p.Grid()
		ext := [3]int{g.M, g.K, g.N}
		for _, r := range layout {
			k := roles[r].tile(p, 0, 0).Key
			rows, cols := ext[roles[r].rows], ext[roles[r].cols]
			if rows <= 0 || cols <= 0 {
				continue // an empty grid touches no tile
			}
			ti := 0
			for ti < len(ts) && (ts[ti].key.Class != k.Class || ts[ti].key.Tensor != k.Tensor) {
				ti++
			}
			if ti == len(ts) {
				ts = append(ts, boxTensor{key: k, rowEnd: k.Row, colEnd: k.Col})
			}
			t := &ts[ti]
			t.key.Row, t.key.Col = min(t.key.Row, k.Row), min(t.key.Col, k.Col)
			t.rowEnd = max(t.rowEnd, k.Row+int32(rows))
			t.colEnd = max(t.colEnd, k.Col+int32(cols))
			t.blocks++
			blocks = append(blocks, tileBlock{ti, int(k.Row), int(k.Col), rows, cols})
			at[i][r] = ti
		}
	}

	// Lay the tensors out back to back, check the shapes fill every box
	// they share, and write the table box by box.
	n := 0
	for ti := range ts {
		t := &ts[ti]
		t.rows, t.cols = int(t.rowEnd-t.key.Row), int(t.colEnd-t.key.Col)
		t.base = n
		n += t.rows * t.cols
		if n != int(int32(n)) {
			panic(fmt.Sprintf("schedule: tile table overflows TileID at %d entries", n))
		}
	}
	checkFilled(ts, blocks)
	keys := make([]TileKey, n)
	for _, t := range ts {
		k := t.key
		for r := 0; r < t.rows; r++ {
			row := keys[t.base+r*t.cols : t.base+(r+1)*t.cols]
			for c := range row {
				row[c] = TileKey{Class: k.Class, Tensor: k.Tensor, Row: k.Row + int32(r), Col: k.Col + int32(c)}
			}
		}
	}
	table := TileTable{Keys: keys}

	vals := make([]Basis, len(ps))
	bs := make([]*Basis, len(ps))
	for i := range ps {
		p := &ps[i]
		b := &vals[i]
		b.init(p, fwd, table)
		if b.grid.Points() > 0 {
			for _, r := range layout {
				t := &ts[at[i][r]]
				k := roles[r].tile(p, 0, 0).Key
				b.ids[r] = idMap{base: t.base + int(k.Row-t.key.Row)*t.cols + int(k.Col-t.key.Col), stride: t.cols}
			}
		}
		bs[i] = b
	}
	return bs
}

// checkFilled panics, naming the tensor, unless the blocks of every tensor
// that more than one shape touches cover its bounding box: one bitmap
// pass per such tensor, over a bitmap sized for the largest.
func checkFilled(ts []boxTensor, blocks []tileBlock) {
	size := 0
	for _, t := range ts {
		if t.blocks > 1 {
			size = max(size, t.rows*t.cols)
		}
	}
	if size == 0 {
		return
	}
	covered := make([]uint64, (size+63)/64)
	for ti, t := range ts {
		if t.blocks < 2 {
			continue
		}
		clear(covered)
		for _, blk := range blocks {
			if blk.tensor != ti {
				continue
			}
			r0, c0 := blk.row-int(t.key.Row), blk.col-int(t.key.Col)
			for r := r0; r < r0+blk.rows; r++ {
				for c := c0; c < c0+blk.cols; c++ {
					i := r*t.cols + c
					covered[i/64] |= 1 << (i % 64)
				}
			}
		}
		for i := 0; i < t.rows*t.cols; i++ {
			if covered[i/64]&(1<<(i%64)) == 0 {
				panic(fmt.Sprintf("schedule: shapes leave tile (%d, %d) of tensor %d (%v) uncovered in its bounding box",
					int(t.key.Row)+i/t.cols, int(t.key.Col)+i%t.cols, t.key.Tensor, t.key.Class))
			}
		}
	}
}

// init builds p's per-axis tables over the given symbol space.
func (b *Basis) init(p *TileParams, fwd bool, table TileTable) {
	g := p.Grid()
	*b = Basis{grid: g, fwd: fwd, elem: int64(p.ElemBytes), table: table}
	clips := make([]int32, g.M+g.K+g.N)
	b.clipM, b.clipK, b.clipN = clips[:g.M], clips[g.M:g.M+g.K], clips[g.M+g.K:]
	for i := range b.clipM {
		b.clipM[i] = int32(clip(i, p.Tiling.Tm, p.Dims.M))
	}
	for i := range b.clipK {
		b.clipK[i] = int32(clip(i, p.Tiling.Tk, p.Dims.K))
	}
	for i := range b.clipN {
		b.clipN[i] = int32(clip(i, p.Tiling.Tn, p.Dims.N))
	}
	b.xBytes = make([]int64, len(b.clipM)*len(b.clipK))
	for mo, r := range b.clipM {
		for ko, c := range b.clipK {
			b.xBytes[mo*len(b.clipK)+ko] = p.xTileBytes(int(r), int(c))
		}
	}
	b.dxClass = p.DXTile(0, 0).Key.Class
	b.dwClass = p.DWTile(0, 0).Key.Class
}

// bytes returns the size of an r x c tile.
func (b *Basis) bytes(r, c int32) int64 { return int64(r) * int64(c) * b.elem }

// accFlags returns the output-protocol flags of reduction step i of n.
func accFlags(i, n int) OpFlags {
	var f OpFlags
	if i == 0 {
		f |= FlagOutFirst
	}
	if i == n-1 {
		f |= FlagOutLast
	}
	return f
}

// op computes the compiled op of step s — exactly what lowering the op
// TileParams.Schedule emits for s would produce, up to the tile ids.
func (b *Basis) op(s Step) CompiledOp {
	g := b.grid
	cm, ck, cn := b.clipM[s.M], b.clipK[s.K], b.clipN[s.N]
	switch {
	case s.Kind == KindDX && !b.fwd:
		// dX(mo,ko) += dY(mo,no) x W^T(no,ko)
		return CompiledOp{
			ABytes: b.bytes(cm, cn), BBytes: b.bytes(ck, cn), OutBytes: b.xBytes[s.M*g.K+s.K],
			A: b.ids[roleDY].at(s.M, s.N), B: b.ids[roleW].at(s.K, s.N), Out: b.ids[roleDX].at(s.M, s.K),
			Tm: cm, Tk: cn, Tn: ck,
			AClass: dram.ClassDY, BClass: dram.ClassW, OutClass: b.dxClass,
			Kind: KindDX, Flags: accFlags(s.N, g.N),
		}
	case s.Kind == KindDW && !b.fwd:
		// dW(ko,no) += X^T(ko,mo) x dY(mo,no); dY is operand B.
		return CompiledOp{
			ABytes: b.xBytes[s.M*g.K+s.K], BBytes: b.bytes(cm, cn), OutBytes: b.bytes(ck, cn),
			A: b.ids[roleX].at(s.M, s.K), B: b.ids[roleDY].at(s.M, s.N), Out: b.ids[roleDW].at(s.K, s.N),
			Tm: ck, Tk: cm, Tn: cn,
			AClass: dram.ClassX, BClass: dram.ClassDY, OutClass: b.dwClass,
			Kind: KindDW, Flags: accFlags(s.M, g.M) | FlagFreeDYB,
		}
	case s.Kind == KindFwd && b.fwd:
		// Y(mo,no) += X(mo,ko) x W(ko,no)
		return CompiledOp{
			ABytes: b.xBytes[s.M*g.K+s.K], BBytes: b.bytes(ck, cn), OutBytes: b.bytes(cm, cn),
			A: b.ids[roleX].at(s.M, s.K), B: b.ids[roleW].at(s.K, s.N), Out: b.ids[roleY].at(s.M, s.N),
			Tm: cm, Tk: ck, Tn: cn,
			AClass: dram.ClassX, BClass: dram.ClassW, OutClass: dram.ClassY,
			Kind: KindFwd, Flags: accFlags(s.K, g.K),
		}
	}
	layout := "backward"
	if b.fwd {
		layout = "forward"
	}
	panic("schedule: a " + layout + " basis holds no " + s.Kind.String() + " ops")
}

// Gather names one kernel of a gathered program: walk W over basis B.
type Gather struct {
	Name string
	B    *Basis
	W    Walk
}

// Len returns the number of ops the kernel issues.
func (k Gather) Len() int { return k.W.Len(k.B.grid) }

// Table returns the kernel's symbol space: its basis' tile table.
func (k Gather) Table() TileTable { return k.B.table }

// GatherProgram assembles a retained program with one kernel per Gather.
// All kernels' bases must come from one NewBases call (or be one basis).
func GatherProgram(kernels ...Gather) *Program {
	n := 0
	for _, k := range kernels {
		n += k.Len()
	}
	prog := &Program{Code: make([]CompiledOp, n), Kernels: make([]Kernel, len(kernels))}
	var s Stream
	start := 0
	for i, k := range kernels {
		CheckSameTable(kernels[0].Table(), k.Table())
		s.Start(k)
		end := start + s.Next(prog.Code[start:start+k.Len()])
		prog.Kernels[i] = Kernel{Name: k.Name, Start: start, End: end}
		start = end
	}
	if len(kernels) > 0 {
		prog.Table = kernels[0].Table()
	}
	return prog
}

// CheckSameTable panics unless a and b are one symbol space.
func CheckSameTable(a, b TileTable) {
	if len(a.Keys) != len(b.Keys) || (len(a.Keys) > 0 && &a.Keys[0] != &b.Keys[0]) {
		panic("schedule: kernels span different symbol spaces")
	}
}

// Stream pulls one kernel's ops in batches: the ops GatherProgram gathers
// for it, with no program built. A started stream points into itself, so
// start it in place and do not copy it.
type Stream struct {
	b  *Basis
	w  Walk
	it walkIter
}

// Start begins streaming kernel k.
func (s *Stream) Start(k Gather) {
	s.b, s.w = k.B, k.W
	s.it.init(&s.w, k.B.grid)
}

// Next fills buf with the stream's next ops and returns how many it wrote:
// fewer than len(buf) only at the end, 0 once the stream is done.
//
//lint:hotpath
func (s *Stream) Next(buf []CompiledOp) int {
	var st Step
	n := 0
	for n < len(buf) && s.it.next(&st) {
		buf[n] = s.b.op(st)
		n++
	}
	return n
}
