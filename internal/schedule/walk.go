package schedule

import "fmt"

// Every schedule in the tree — the baseline loop orders, the chunked
// partial-stationary orders, the paper's fused and rearranged orders — is
// an order over one fixed set of tile ops, each a pure function of its
// kind and grid point (mo, ko, no). A Walk is such an order written once as
// a grid-coordinate enumeration. Two consumers share it: TileParams.Schedule
// turns each step into an Op (the []Op generators), and GatherProgram
// gathers each step's pre-lowered CompiledOp from a Basis
// (basis.go). So no loop nest is written twice, and a gathered program and
// the emitted schedule of the same walk agree op for op.

// Axis names one dimension of a layer's tile grid.
type Axis uint8

const (
	AxisM Axis = iota // mo: rows of X, dY and dX
	AxisK             // ko: columns of X and dX, rows of W and dW
	AxisN             // no: columns of W, dY and dW
)

// Grid is a tile-grid extent: the tile counts along M, K and N.
type Grid struct{ M, K, N int }

// OpCount returns the number of ops any single-GEMM generator emits for p:
// one op per tile-grid point.
func (p TileParams) OpCount() int {
	mt, kt, nt := p.Tiling.Counts(p.Dims)
	return mt * kt * nt
}

// Grid returns p's tile grid.
func (p TileParams) Grid() Grid {
	mt, kt, nt := p.Tiling.Counts(p.Dims)
	return Grid{mt, kt, nt}
}

// Points returns the number of grid points.
func (g Grid) Points() int { return g.M * g.K * g.N }

// Step is one tile op of a walk: which GEMM it belongs to and its grid
// point.
type Step struct {
	Kind    Kind
	M, K, N int
}

// nest is one loop nest over the grid. loops lists the axes outermost
// first. When chunk > 0 an extra outermost loop walks the chunkAxis range
// in chunks of chunk indices (clamped to the extent), and the nest covers
// one chunk at a time. kinds[:nkinds] lists the ops issued at every grid
// point, in order (a fixed array keeps walks allocation-free).
type nest struct {
	loops     [3]Axis
	chunkAxis Axis
	chunk     int
	kinds     [2]Kind
	nkinds    int
}

// Walk is a tile-op order over a grid: one loop nest, or two nests merged
// block ops per turn.
type Walk struct {
	a, b  nest
	block int // 0: nest a alone; > 0: a and b alternate block ops per turn
}

// NestWalk returns the loop nest over loops (outermost first, a
// permutation of the three axes) issuing one op of each kind, in order, at
// every grid point. A nest issues one or two ops per point.
func NestWalk(loops [3]Axis, kinds ...Kind) Walk {
	if loops[0] == loops[1] || loops[0] == loops[2] || loops[1] == loops[2] {
		panic(fmt.Sprintf("schedule: loop nest %v repeats an axis", loops))
	}
	n := nest{loops: loops, nkinds: len(kinds)}
	if copy(n.kinds[:], kinds) != len(kinds) || len(kinds) == 0 {
		panic(fmt.Sprintf("schedule: a nest issues one or two ops per point, not %d", len(kinds)))
	}
	return Walk{a: n}
}

// Chunked splits the nest's axis loop into chunks of chunk indices walked
// by an extra outermost loop. Chunk sizes below 1 mean 1; sizes past the
// extent mean the whole extent.
func (w Walk) Chunked(axis Axis, chunk int) Walk {
	if w.block > 0 {
		panic("schedule: Chunked on a merged walk")
	}
	w.a.chunkAxis, w.a.chunk = axis, max(chunk, 1)
	return w
}

// Merge alternates two single-nest walks, block ops of a then block ops of
// b per turn, until both are exhausted. Blocks below 1 mean 1.
func Merge(a, b Walk, block int) Walk {
	if a.block > 0 || b.block > 0 {
		panic("schedule: Merge of a merged walk")
	}
	return Walk{a: a.a, b: b.a, block: max(block, 1)}
}

// Len returns the number of ops w issues over grid g.
func (w Walk) Len(g Grid) int {
	n := w.a.nkinds
	if w.block > 0 {
		n += w.b.nkinds
	}
	return n * g.Points()
}

// Each calls yield once per op of w over grid g, in order, until yield
// returns false.
func (w Walk) Each(g Grid, yield func(Step) bool) {
	var it walkIter
	var s Step
	it.init(&w, g)
	for it.next(&s) {
		if !yield(s) {
			return
		}
	}
}

// walkIter pulls a walk's steps: nest a alone, or a and b taking turns of
// block steps until both are exhausted.
type walkIter struct {
	a, b  cursor
	block int
	turn  int  // steps taken in the current turn
	onB   bool // whose turn it is
}

func (it *walkIter) init(w *Walk, g Grid) {
	*it = walkIter{block: w.block}
	it.a.init(&w.a, g)
	if w.block > 0 {
		it.b.init(&w.b, g)
	}
}

// next stores the next step in s, reporting false once the walk is done.
//
//lint:hotpath
func (it *walkIter) next(s *Step) bool {
	if it.block == 0 {
		return it.a.next(s)
	}
	for {
		c := &it.a
		if it.onB {
			c = &it.b
		}
		if it.turn < it.block && c.next(s) {
			it.turn++
			return true
		}
		if it.a.done && it.b.done {
			return false
		}
		it.onB, it.turn = !it.onB, 0
	}
}

// cursor pulls one nest's steps: an odometer over the three axes, innermost
// loop fastest, with the chunked axis confined to [lo, hi).
type cursor struct {
	n           *nest
	ext, lo, hi [3]int
	pos         [3]int
	chunk, kind int
	done        bool
}

func (c *cursor) init(n *nest, g Grid) {
	*c = cursor{n: n, ext: [3]int{g.M, g.K, g.N}}
	c.hi = c.ext
	c.done = g.Points() <= 0 || n.nkinds == 0
	if n.chunk > 0 {
		a := n.chunkAxis
		c.chunk = clampChunk(n.chunk, c.ext[a])
		c.hi[a] = c.chunk
	}
}

// next stores the next step in s, reporting false once the nest is done.
//
//lint:hotpath
func (c *cursor) next(s *Step) bool {
	if c.done {
		return false
	}
	*s = Step{Kind: c.n.kinds[c.kind], M: c.pos[AxisM], K: c.pos[AxisK], N: c.pos[AxisN]}
	if c.kind++; c.kind < c.n.nkinds {
		return true
	}
	c.kind = 0
	for l := 2; l >= 0; l-- {
		a := c.n.loops[l]
		if c.pos[a]++; c.pos[a] < c.hi[a] {
			return true
		}
		c.pos[a] = c.lo[a]
	}
	if c.chunk == 0 {
		c.done = true
		return true
	}
	a := c.n.chunkAxis
	c.lo[a] += c.chunk
	if c.lo[a] >= c.ext[a] {
		c.done = true
		return true
	}
	c.hi[a] = min(c.lo[a]+c.chunk, c.ext[a])
	c.pos[a] = c.lo[a]
	return true
}

// Schedule materializes w over p's grid as a named schedule.
func (p TileParams) Schedule(name string, w Walk) Schedule {
	g := p.Grid()
	ops := make([]Op, 0, w.Len(g))
	w.Each(g, func(s Step) bool {
		ops = append(ops, p.stepOp(s, g))
		return true
	})
	return Schedule{Name: name, Ops: ops}
}

// stepOp returns the op of step s on p's grid g.
func (p *TileParams) stepOp(s Step, g Grid) Op {
	switch s.Kind {
	case KindDX:
		return p.DXOp(s.M, s.K, s.N, g.N)
	case KindDW:
		return p.DWOp(s.K, s.N, s.M, g.M)
	default:
		return p.FwdOp(s.M, s.K, s.N, g.K)
	}
}

// The named walks: the loop nests the generators and tuners explore.

// ForwardWalk is the output-stationary forward nest: m outer, n middle,
// reduction k inner.
func ForwardWalk() Walk { return NestWalk([3]Axis{AxisM, AxisN, AxisK}, KindFwd) }

// BaselineDXWalk is the reduction-inner dX nest in the given loop order.
func BaselineDXWalk(order DXLoopOrder) Walk {
	if order == DXOrderKM {
		return NestWalk([3]Axis{AxisK, AxisM, AxisN}, KindDX)
	}
	return NestWalk([3]Axis{AxisM, AxisK, AxisN}, KindDX)
}

// BaselineDWWalk is the reduction-inner dW nest in the given loop order.
func BaselineDWWalk(order DWLoopOrder) Walk {
	if order == DWOrderNK {
		return NestWalk([3]Axis{AxisN, AxisK, AxisM}, KindDW)
	}
	return NestWalk([3]Axis{AxisK, AxisN, AxisM}, KindDW)
}

// PartialStationaryDXWalk is the row-chunked partial-stationary dX nest:
// per chunk of mo, reduction no outer, then mo, then ko.
func PartialStationaryDXWalk(chunkRows int) Walk {
	return NestWalk([3]Axis{AxisN, AxisM, AxisK}, KindDX).Chunked(AxisM, chunkRows)
}

// PartialStationaryDXColsWalk is the column-chunked partial-stationary dX
// nest: per chunk of ko, reduction no outer, then ko, then mo.
func PartialStationaryDXColsWalk(chunkCols int) Walk {
	return NestWalk([3]Axis{AxisN, AxisK, AxisM}, KindDX).Chunked(AxisK, chunkCols)
}

// PartialStationaryDWWalk is the row-chunked partial-stationary dW nest:
// per chunk of ko, reduction mo outer, then ko, then no.
func PartialStationaryDWWalk(chunkRows int) Walk {
	return NestWalk([3]Axis{AxisM, AxisK, AxisN}, KindDW).Chunked(AxisK, chunkRows)
}

// PartialStationaryDWColsWalk is the column-chunked partial-stationary dW
// nest: per chunk of no, reduction mo outer, then no, then ko.
func PartialStationaryDWColsWalk(chunkCols int) Walk {
	return NestWalk([3]Axis{AxisM, AxisN, AxisK}, KindDW).Chunked(AxisN, chunkCols)
}
