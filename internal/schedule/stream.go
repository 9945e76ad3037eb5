package schedule

// OpStream is a pull-based tile-op iterator: calling the stream drives the
// generator's loop nest, invoking yield once per op in schedule order. The
// op pointer is only valid for the duration of the yield call (generators
// reuse the backing storage), so consumers that retain ops must copy them.
// Returning false from yield aborts generation immediately — the generator
// unwinds without producing the remaining ops and without leaking any
// buffers (generators hold no pooled state).
//
// Streams exist so that executing or compiling a schedule does not require
// materializing the full []Op first: peak memory stays constant in the op
// count. The eager generators (Forward, BaselineDX, PartialStationary*, …)
// are thin Collect wrappers over their stream forms.
type OpStream func(yield func(*Op) bool)

// Collect materializes a stream. sizeHint pre-sizes the slice (pass the
// exact op count when known; values <= 0 mean unknown).
func Collect(s OpStream, sizeHint int) []Op {
	ops := make([]Op, 0, max(sizeHint, 0))
	s(func(op *Op) bool {
		ops = append(ops, *op)
		return true
	})
	return ops
}

// Concat chains streams: each runs to completion before the next starts,
// and an abort in any stream aborts the rest.
func Concat(streams ...OpStream) OpStream {
	return func(yield func(*Op) bool) {
		done := false
		for _, s := range streams {
			if done {
				return
			}
			s(func(op *Op) bool {
				if !yield(op) {
					done = true
				}
				return !done
			})
		}
	}
}

// OpCount returns the number of ops any single-GEMM generator emits for p:
// one op per tile-grid point.
func (p TileParams) OpCount() int {
	mt, kt, nt := p.Tiling.Counts(p.Dims)
	return mt * kt * nt
}

// The stream forms of the named walks (walk.go).

// ForwardStream is the stream form of Forward.
func ForwardStream(p TileParams) OpStream { return p.Stream(ForwardWalk()) }

// BaselineDXStream is the stream form of BaselineDXOrdered.
func BaselineDXStream(p TileParams, order DXLoopOrder) OpStream {
	return p.Stream(BaselineDXWalk(order))
}

// BaselineDWStream is the stream form of BaselineDWOrdered.
func BaselineDWStream(p TileParams, order DWLoopOrder) OpStream {
	return p.Stream(BaselineDWWalk(order))
}

// BaselineBackwardStream is the stream form of BaselineBackwardOrdered: the
// full dX GEMM followed by the full dW GEMM as one unflushed stream.
func BaselineBackwardStream(p TileParams, dxo DXLoopOrder, dwo DWLoopOrder) OpStream {
	return Concat(BaselineDXStream(p, dxo), BaselineDWStream(p, dwo))
}

// PartialStationaryDXStream is the stream form of PartialStationaryDX.
func PartialStationaryDXStream(p TileParams, chunkRows int) OpStream {
	return p.Stream(PartialStationaryDXWalk(chunkRows))
}

// PartialStationaryDXColsStream is the stream form of PartialStationaryDXCols.
func PartialStationaryDXColsStream(p TileParams, chunkCols int) OpStream {
	return p.Stream(PartialStationaryDXColsWalk(chunkCols))
}

// PartialStationaryDWStream is the stream form of PartialStationaryDW.
func PartialStationaryDWStream(p TileParams, chunkRows int) OpStream {
	return p.Stream(PartialStationaryDWWalk(chunkRows))
}

// PartialStationaryDWColsStream is the stream form of PartialStationaryDWCols.
func PartialStationaryDWColsStream(p TileParams, chunkCols int) OpStream {
	return p.Stream(PartialStationaryDWColsWalk(chunkCols))
}
