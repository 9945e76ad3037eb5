package core

import (
	"reflect"
	"sync"
	"testing"

	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/sim"
	"igosim/internal/workload"
)

// layerResults snapshots everything the tuned simulation paths produce for
// one layer: the tuning caches (baseline, interleave, order selection) and
// the memoized per-layer outcomes of three policies.
type layerResults struct {
	base LayerOutcome
	ilv  LayerOutcome
	rea  LayerOutcome
	ord  Order
	tune ordersVal
	itun ordersVal
}

func computeLayer(cfg config.NPU, p LayerPlan) layerResults {
	return layerResults{
		base: RunBackwardMulti(cfg, sim.Options{}, p.Params, PolBaseline, p.Layer.SkipDX),
		ilv:  RunBackwardMulti(cfg, sim.Options{}, p.Params, PolInterleave, p.Layer.SkipDX),
		rea:  RunBackwardMulti(cfg, sim.Options{}, p.Params, PolRearrange, p.Layer.SkipDX),
		ord:  BestOrderSimulated(cfg, p.Params),
		tune: baselineChoices(cfg, p.Params),
		itun: interleaveChoices(cfg, p.Params),
	}
}

// TestParallelHammerMatchesSequential drives the tuning caches and the
// layer memo from 16 goroutines at once against a cold cache and asserts
// every goroutine sees results identical to a sequential cold run, and
// that the resolved-trace census matches the sequential one. Run
// with -race: this is the test that catches unsynchronized cache state.
func TestParallelHammerMatchesSequential(t *testing.T) {
	cfg := config.SmallNPU()
	m, err := workload.ByAbbr(workload.EdgeSuite(), "ncf")
	if err != nil {
		t.Fatal(err)
	}
	plans := PlanModel(cfg, m)
	if len(plans) == 0 {
		t.Fatal("no plans")
	}

	// Sequential cold reference.
	prev := runner.SetParallelism(1)
	defer runner.SetParallelism(prev)
	ResetCaches()
	ref := make([]layerResults, len(plans))
	for i, p := range plans {
		ref[i] = computeLayer(cfg, p)
	}
	census := sim.ResolvedCacheStats().Entries

	// 16 goroutines recompute every layer concurrently against cold
	// caches: misses race, GetOrCompute may compute twice, and every
	// goroutine must still observe the sequential answer.
	runner.SetParallelism(16)
	ResetCaches()
	const goroutines = 16
	got := make([][]layerResults, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			out := make([]layerResults, len(plans))
			for i, p := range plans {
				out[i] = computeLayer(cfg, p)
			}
			got[g] = out
		}()
	}
	wg.Wait()

	// Miss races may resolve a trace twice, but the distinct census —
	// panel resolutions included — must not see it.
	if n := sim.ResolvedCacheStats().Entries; n != census {
		t.Errorf("resolved-trace census %d under 16 goroutines, %d sequentially", n, census)
	}
	for g := range got {
		for i := range plans {
			if !reflect.DeepEqual(got[g][i], ref[i]) {
				t.Fatalf("goroutine %d layer %d: parallel result differs from sequential\nparallel:   %+v\nsequential: %+v",
					g, i, got[g][i], ref[i])
			}
		}
	}
}

// TestRunTrainingParallelMatchesSequential asserts a whole-model training
// run is bit-identical at width 1 (cold) and width 8 (cold).
func TestRunTrainingParallelMatchesSequential(t *testing.T) {
	cfg := config.SmallNPU()
	m, err := workload.ByAbbr(workload.EdgeSuite(), "ncf")
	if err != nil {
		t.Fatal(err)
	}
	prev := runner.SetParallelism(1)
	defer runner.SetParallelism(prev)
	ResetCaches()
	seq := RunTraining(cfg, sim.Options{}, m, PolRearrange)

	runner.SetParallelism(8)
	ResetCaches()
	par := RunTraining(cfg, sim.Options{}, m, PolRearrange)

	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("training run differs across widths\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestLayerMemoHitRate checks the shape-keyed memo pays on a repeated-block
// workload: one cold ResNet training step must hit the layer memo on more
// than half its lookups, since most blocks repeat the same GEMM shapes.
func TestLayerMemoHitRate(t *testing.T) {
	cfg := config.LargeNPU()
	m, err := workload.ByAbbr(workload.ServerSuite(), "res")
	if err != nil {
		t.Fatal(err)
	}
	prev := runner.SetParallelism(4)
	defer runner.SetParallelism(prev)
	ResetCaches()
	RunTraining(cfg, sim.Options{}, m, PolBaseline)
	snap := LayerMemoStats()
	if snap.Lookups() == 0 {
		t.Fatal("training did not consult the layer memo")
	}
	if snap.HitRate() <= 0.5 {
		t.Fatalf("layer memo hit rate %.1f%% on ResNet (%d hits / %d lookups), want > 50%%",
			100*snap.HitRate(), snap.Hits, snap.Lookups())
	}
	t.Logf("layer memo on ResNet: %s", snap)
}
