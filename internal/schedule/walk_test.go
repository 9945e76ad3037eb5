package schedule

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"igosim/internal/tensor"
)

// refNest spells a loop nest out as literal loops, the way the generators
// wrote them before walks existed: for each chunk of the chunked axis (the
// whole extent when chunk is 0), loops outermost first, kinds per point.
func refNest(g Grid, loops [3]Axis, chunkAxis Axis, chunk int, kinds ...Kind) []Step {
	ext := [3]int{g.M, g.K, g.N}
	if chunk == 0 {
		chunk = ext[chunkAxis]
	}
	var out []Step
	for c := 0; c < ext[chunkAxis]; c += chunk {
		lo, hi := [3]int{}, ext
		lo[chunkAxis], hi[chunkAxis] = c, min(c+chunk, ext[chunkAxis])
		var pos [3]int
		for pos[loops[0]] = lo[loops[0]]; pos[loops[0]] < hi[loops[0]]; pos[loops[0]]++ {
			for pos[loops[1]] = lo[loops[1]]; pos[loops[1]] < hi[loops[1]]; pos[loops[1]]++ {
				for pos[loops[2]] = lo[loops[2]]; pos[loops[2]] < hi[loops[2]]; pos[loops[2]]++ {
					for _, k := range kinds {
						out = append(out, Step{Kind: k, M: pos[AxisM], K: pos[AxisK], N: pos[AxisN]})
					}
				}
			}
		}
	}
	return out
}

func steps(w Walk, g Grid) []Step {
	var out []Step
	w.Each(g, func(s Step) bool {
		out = append(out, s)
		return true
	})
	return out
}

// TestNamedWalksMatchLiteralLoops holds every named walk to its literal
// loop nest, for chunk sizes of 1, in range and past the extent.
func TestNamedWalksMatchLiteralLoops(t *testing.T) {
	g := Grid{M: 5, K: 3, N: 4}
	M, K, N := AxisM, AxisK, AxisN
	for _, chunk := range []int{1, 2, 3, 7} {
		cases := []struct {
			name string
			w    Walk
			want []Step
		}{
			{"forward", ForwardWalk(), refNest(g, [3]Axis{M, N, K}, M, 0, KindFwd)},
			{"dx-mk", BaselineDXWalk(DXOrderMK), refNest(g, [3]Axis{M, K, N}, M, 0, KindDX)},
			{"dx-km", BaselineDXWalk(DXOrderKM), refNest(g, [3]Axis{K, M, N}, M, 0, KindDX)},
			{"dw-kn", BaselineDWWalk(DWOrderKN), refNest(g, [3]Axis{K, N, M}, M, 0, KindDW)},
			{"dw-nk", BaselineDWWalk(DWOrderNK), refNest(g, [3]Axis{N, K, M}, M, 0, KindDW)},
			{"ps-dx-rows", PartialStationaryDXWalk(chunk), refNest(g, [3]Axis{N, M, K}, M, chunk, KindDX)},
			{"ps-dx-cols", PartialStationaryDXColsWalk(chunk), refNest(g, [3]Axis{N, K, M}, K, chunk, KindDX)},
			{"ps-dw-rows", PartialStationaryDWWalk(chunk), refNest(g, [3]Axis{M, K, N}, K, chunk, KindDW)},
			{"ps-dw-cols", PartialStationaryDWColsWalk(chunk), refNest(g, [3]Axis{M, N, K}, N, chunk, KindDW)},
			{"fused", NestWalk([3]Axis{N, M, K}, KindDX, KindDW).Chunked(M, chunk),
				refNest(g, [3]Axis{N, M, K}, M, chunk, KindDX, KindDW)},
		}
		for _, c := range cases {
			got := steps(c.w, g)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("chunk %d %s: walk differs from its literal loops", chunk, c.name)
			}
			if len(got) != c.w.Len(g) {
				t.Errorf("chunk %d %s: %d steps, Len says %d", chunk, c.name, len(got), c.w.Len(g))
			}
		}
	}
}

// TestMergeWalk checks block alternation against slicing the two nests'
// step lists, including blocks at least as long as a stream.
func TestMergeWalk(t *testing.T) {
	g := Grid{M: 3, K: 2, N: 3}
	a, b := BaselineDXWalk(DXOrderKM), BaselineDWWalk(DWOrderNK)
	as, bs := steps(a, g), steps(b, g)
	for _, block := range []int{-1, 0, 1, 4, 18, 100} {
		blk := max(block, 1)
		var want []Step
		for i := 0; i < len(as); i += blk {
			want = append(want, as[i:min(i+blk, len(as))]...)
			want = append(want, bs[i:min(i+blk, len(bs))]...)
		}
		w := Merge(a, b, block)
		if got := steps(w, g); !reflect.DeepEqual(got, want) {
			t.Errorf("block %d: merged walk differs", block)
		}
		if w.Len(g) != len(want) {
			t.Errorf("block %d: Len %d, want %d", block, w.Len(g), len(want))
		}
	}
}

// TestWalkEarlyAbort checks that a false yield stops a merged walk at once.
func TestWalkEarlyAbort(t *testing.T) {
	n := 0
	Merge(BaselineDXWalk(DXOrderMK), BaselineDWWalk(DWOrderKN), 2).Each(Grid{M: 4, K: 4, N: 4}, func(Step) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("walk yielded %d steps after abort, want 3", n)
	}
}

// TestGatherMatchesCompile checks that a program gathered from a basis is
// the compiled emitted schedule up to a TileID renaming: equal ops, with
// ids that map bijectively onto equal keys.
func TestGatherMatchesCompile(t *testing.T) {
	p := testParams(tensor.Dims{M: 33, K: 22, N: 11}, Tiling{Tm: 7, Tk: 6, Tn: 4})
	p.XFactor = 0.3
	b := NewBasis(p)
	dx := BaselineDXWalk(DXOrderKM)
	dw := PartialStationaryDWColsWalk(2)
	got := GatherProgram(Gather{Name: "dx", B: b, W: dx}, Gather{Name: "dw", B: b, W: dw})
	checkSameUpToRenaming(t, got, Compile(p.Schedule("dx", dx), p.Schedule("dw", dw)))
}

// TestStreamMatchesGather checks a stream yields exactly the ops
// GatherProgram gathers, in order, at batch sizes that divide the walk,
// leave a remainder, and exceed it, and that a stream can be restarted.
func TestStreamMatchesGather(t *testing.T) {
	p := testParams(tensor.Dims{M: 33, K: 22, N: 11}, Tiling{Tm: 7, Tk: 6, Tn: 4})
	p.XFactor = 0.3
	k := Gather{B: NewBasis(p), W: Merge(BaselineDXWalk(DXOrderMK), PartialStationaryDWWalk(2), 5)}
	want := GatherProgram(k).Code
	var s Stream
	for _, size := range []int{1, 3, len(want), len(want) + 7} {
		for round := 0; round < 2; round++ {
			var got []CompiledOp
			buf := make([]CompiledOp, size)
			s.Start(k)
			for n := s.Next(buf); n > 0; n = s.Next(buf) {
				if n < size && len(got)+n != len(want) {
					t.Fatalf("batch %d: a short batch of %d before the end", size, n)
				}
				got = append(got, buf[:n]...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d round %d: streamed %d ops differ from the %d gathered", size, round, len(got), len(want))
			}
		}
	}
}

// TestForwardGatherMatchesCompile checks the forward basis the same way,
// and that its table holds exactly the forward pass's X, W and Y tiles.
func TestForwardGatherMatchesCompile(t *testing.T) {
	p := testParams(tensor.Dims{M: 33, K: 22, N: 11}, Tiling{Tm: 7, Tk: 6, Tn: 4})
	p.XFactor = 0.3
	got := GatherProgram(Gather{Name: "forward", B: NewForwardBasis(p), W: ForwardWalk()})
	want := Compile(Forward(p))
	checkSameUpToRenaming(t, got, want)
	if got.Table.Len() != want.Table.Len() {
		t.Fatalf("forward basis table holds %d tiles, the compiled forward pass %d", got.Table.Len(), want.Table.Len())
	}
}

func checkSameUpToRenaming(t *testing.T, got *Program, want Program) {
	t.Helper()
	if !reflect.DeepEqual(got.Kernels, want.Kernels) {
		t.Fatalf("kernels %v, want %v", got.Kernels, want.Kernels)
	}
	if len(got.Code) != len(want.Code) {
		t.Fatalf("%d ops, want %d", len(got.Code), len(want.Code))
	}
	for i := range got.Code {
		g, w := got.Code[i], want.Code[i]
		for _, ids := range [][2]TileID{{g.A, w.A}, {g.B, w.B}, {g.Out, w.Out}} {
			if got.Table.Keys[ids[0]] != want.Table.Keys[ids[1]] {
				t.Fatalf("op %d: gathered tile %v, compiled %v", i, got.Table.Keys[ids[0]], want.Table.Keys[ids[1]])
			}
		}
		g.A, g.B, g.Out = w.A, w.B, w.Out
		if g != w {
			t.Fatalf("op %d: gathered %+v, compiled %+v", i, got.Code[i], w)
		}
	}
}

// TestBasisRejectsWrongKind checks that a backward basis computes no
// forward op and a forward basis no gradient op.
func TestBasisRejectsWrongKind(t *testing.T) {
	p := testParams(tensor.Dims{M: 8, K: 8, N: 8}, Tiling{Tm: 4, Tk: 4, Tn: 4})
	for _, c := range []struct {
		b *Basis
		w Walk
	}{
		{NewBasis(p), ForwardWalk()},
		{NewForwardBasis(p), BaselineDXWalk(DXOrderMK)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("gathering %v ops from the wrong basis did not panic", c.w.a.kinds[0])
				}
			}()
			GatherProgram(Gather{B: c.b, W: c.w})
		}()
	}
}

// TestNewBasesRejectsGap checks that shapes leaving a hole in a tensor's
// tile bounding box are refused, naming the tensor: the hole's ids would
// be table entries no op reaches.
func TestNewBasesRejectsGap(t *testing.T) {
	p := testParams(tensor.Dims{M: 8, K: 8, N: 8}, Tiling{Tm: 4, Tk: 4, Tn: 4})
	far := p
	far.OffM = 3 // rows 0-1 and 3-4: row 2 of X, dY and dX is missing
	want := fmt.Sprintf("tensor %d (X)", p.XTile(0, 0).Key.Tensor)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("bases with a gap did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name %s", msg, want)
		}
	}()
	NewBases(p, far)
}

// TestGatherRejectsForeignBases checks that kernels from two symbol spaces
// cannot be combined into one program.
func TestGatherRejectsForeignBases(t *testing.T) {
	p := testParams(tensor.Dims{M: 8, K: 8, N: 8}, Tiling{Tm: 4, Tk: 4, Tn: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("gathering across symbol spaces did not panic")
		}
	}()
	GatherProgram(Gather{B: NewBasis(p), W: BaselineDXWalk(DXOrderMK)}, Gather{B: NewBasis(p), W: BaselineDWWalk(DWOrderKN)})
}
