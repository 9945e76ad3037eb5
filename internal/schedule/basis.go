package schedule

// Compiled op bases (DESIGN.md §3k). A layer shape's backward pass has
// exactly 2·mt·kt·nt distinct tile ops: the dX op and the dW op of every
// grid point. Every candidate schedule the tuners explore is a reordering
// of that set, so a Basis lowers each of those ops once, through one
// Compiler, and every candidate program is then a gather over it along the
// candidate's walk: no op is emitted, merged or interned per candidate.
//
// A gathered program's TileIDs follow the basis' interning order (grid
// order), not the candidate's first-appearance order. Residency is an LRU
// over those ids whose decisions depend only on access order, so the
// renaming is bijective and cannot change any result; the basis-gather
// property suite holds gathered programs to the emitted schedules up to
// exactly that bijection.

// Basis is one shape's compiled op basis: the dX and dW op of every grid
// point, lowered once.
type Basis struct {
	grid Grid
	// ops holds grid point (mo, ko, no)'s dX op at 2·((mo·kt+ko)·nt+no)
	// and its dW op right after it.
	ops   []CompiledOp
	table TileTable
}

// basisWalk enumerates the basis in storage order.
var basisWalk = NestWalk([3]Axis{AxisM, AxisK, AxisN}, KindDX, KindDW)

// NewBasis lowers p's basis through a fresh compiler.
func NewBasis(p TileParams) *Basis { return NewBases(p)[0] }

// NewBases lowers several shapes' bases through one compiler, so their
// programs share one symbol space: a tile the shapes share (partitions of
// one layer) carries one TileID in all of them, and GatherProgram may
// combine their kernels into one program.
func NewBases(ps ...TileParams) []*Basis {
	tiles := 0
	for i := range ps {
		g := ps[i].Grid()
		tiles += 2*g.M*g.K + 2*g.K*g.N + g.M*g.N // X, dX; W, dW; dY
	}
	c := newCompilerFor(tiles)
	bs := make([]*Basis, len(ps))
	for i := range ps {
		p := &ps[i]
		g := p.Grid()
		b := &Basis{grid: g, ops: make([]CompiledOp, 0, basisWalk.Len(g))}
		basisWalk.Each(g, func(s Step) bool {
			op := p.stepOp(s, g)
			b.ops = append(b.ops, c.Lower(&op))
			return true
		})
		bs[i] = b
	}
	t := c.DetachTable()
	for _, b := range bs {
		b.table = t
	}
	return bs
}

// appendWalk appends the ops of walk w, gathered from the basis, to code.
func (b *Basis) appendWalk(code []CompiledOp, w Walk) []CompiledOp {
	g := b.grid
	var it walkIter
	var s Step
	it.init(&w, g)
	for it.next(&s) {
		i := 2 * ((s.M*g.K+s.K)*g.N + s.N)
		switch s.Kind {
		case KindDX:
		case KindDW:
			i++
		default:
			panic("schedule: basis holds no " + s.Kind.String() + " ops")
		}
		code = append(code, b.ops[i])
	}
	return code
}

// Gather names one kernel of a gathered program: walk W over basis B.
type Gather struct {
	Name string
	B    *Basis
	W    Walk
}

// GatherProgram assembles a retained program with one kernel per Gather.
// All kernels' bases must come from one NewBases call (or be one basis).
func GatherProgram(kernels ...Gather) *Program {
	prog := &Program{}
	GatherInto(prog, kernels...)
	return prog
}

// GatherInto is GatherProgram into prog, reusing its code and kernel
// storage — for transient candidate programs priced one after another.
func GatherInto(prog *Program, kernels ...Gather) {
	n := 0
	for _, k := range kernels {
		n += k.W.Len(k.B.grid)
	}
	if cap(prog.Code) < n {
		prog.Code = make([]CompiledOp, 0, n)
	}
	prog.Code = prog.Code[:0]
	prog.Kernels = prog.Kernels[:0]
	for _, k := range kernels {
		if !sameTable(k.B.table, kernels[0].B.table) {
			panic("schedule: gathered kernels span bases of different symbol spaces")
		}
		start := len(prog.Code)
		prog.Code = k.B.appendWalk(prog.Code, k.W)
		prog.Kernels = append(prog.Kernels, Kernel{Name: k.Name, Start: start, End: len(prog.Code)})
	}
	if len(kernels) > 0 {
		prog.Table = kernels[0].B.table
	}
}

// sameTable reports whether two tables are one symbol space.
func sameTable(a, b TileTable) bool {
	return len(a.Keys) == len(b.Keys) && (len(a.Keys) == 0 || &a.Keys[0] == &b.Keys[0])
}
