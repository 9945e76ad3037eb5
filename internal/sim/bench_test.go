package sim_test

import (
	"testing"

	"igosim/internal/bench"
)

// BenchmarkCompiledEngine measures a full ResNet-50 backward pass per
// iteration: the compiled path (lower + execute) and its steady state
// (programs lowered once, execution only). The bodies live in
// internal/bench so cmd/benchjson reports exactly the numbers this
// benchmark measures.
func BenchmarkCompiledEngine(b *testing.B) {
	w := bench.ResNet50Backward()
	// The engine must agree with the oracle before its speed is worth
	// measuring.
	if err := w.Verify(); err != nil {
		b.Fatal(err)
	}
	b.Run("compiled", w.Pass())
	b.Run("steady", w.Steady())
}

// BenchmarkBasisGather measures the compiled-op basis stage of the
// multi-core path: per ResNet-50 layer, every scheme's plan at 2, 4 and 8
// cores lowered to bases, and each core's dX and dW kernels gathered
// (cmd/benchjson's BasisGather row).
func BenchmarkBasisGather(b *testing.B) {
	bench.ResNet50Backward().Gather()(b)
}
