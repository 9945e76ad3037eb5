package schedule

// Chunked partial-stationary loop orders: the multi-level tilings of the
// prior scheduling studies the paper's baseline includes (GAMMA, Moon et
// al.). The output is processed in chunks whose partial sums stay resident
// in SPM while the reduction dimension runs in a middle loop; operand bands
// are then streamed once per chunk instead of once per output tile row.
// These orders complete each output tile only after the full reduction, so
// they emit exactly the same op multiset as the reduction-inner orders.
//
// The loop nests are the named walks (walk.go); the functions here
// materialize them for callers that need a slice.

// clampChunk bounds a chunk size (in tiles) to [1, total].
func clampChunk(chunk, total int) int {
	if chunk < 1 {
		return 1
	}
	if chunk > total {
		return total
	}
	return chunk
}

// PartialStationaryDX generates the dX GEMM with row-chunked partials:
//
//	for each chunk of dX tile-rows:
//	    for no (reduction): for mo in chunk: for ko: dX(mo,ko) += ...
//
// dY is read once per layer, W once per chunk; the live partials are
// chunkRows x K.
func PartialStationaryDX(p TileParams, chunkRows int) []Op {
	return p.Schedule("", PartialStationaryDXWalk(chunkRows)).Ops
}

// PartialStationaryDXCols generates the dX GEMM with column-chunked
// partials (chunks over K): W is read once per layer, dY once per chunk;
// the live partials are M x chunkCols.
func PartialStationaryDXCols(p TileParams, chunkCols int) []Op {
	return p.Schedule("", PartialStationaryDXColsWalk(chunkCols)).Ops
}

// PartialStationaryDW generates the dW GEMM with row-chunked partials
// (chunks over K): X is read once per layer, dY once per chunk; the live
// partials are chunkRows x N.
func PartialStationaryDW(p TileParams, chunkRows int) []Op {
	return p.Schedule("", PartialStationaryDWWalk(chunkRows)).Ops
}

// PartialStationaryDWCols generates the dW GEMM with column-chunked
// partials (chunks over N): dY is read once per layer, X once per chunk;
// the live partials are K x chunkCols.
func PartialStationaryDWCols(p TileParams, chunkCols int) []Op {
	return p.Schedule("", PartialStationaryDWColsWalk(chunkCols)).Ops
}
