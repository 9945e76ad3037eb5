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
