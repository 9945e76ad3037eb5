package core

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/sim"
	"igosim/internal/workload"
)

// TestCheckFitIsExact holds CheckFit to the engine: at SPM sizes on both
// sides of the point where the model's largest tile stops fitting the
// residency half, the check rejects exactly the configurations on which a
// training step panics.
func TestCheckFitIsExact(t *testing.T) {
	m, err := workload.ByAbbr(workload.EdgeSuite(), "ncf")
	if err != nil {
		t.Fatal(err)
	}
	// Sequential, so an engine panic surfaces on this goroutine.
	prev := runner.SetParallelism(1)
	defer runner.SetParallelism(prev)
	defer ResetCaches()

	cfg := config.SmallNPU()
	cfg.SPMBytes = 16 << 10
	var need int64
	for _, lp := range PlanModel(cfg, m) {
		need = max(need, lp.Params.MaxTileBytes())
	}
	var fits, rejects int
	for _, spm := range []int64{need, 2*need - 1, 2 * need, 2*need + 1} {
		cfg.SPMBytes = spm
		fitErr := CheckFit(cfg, PlanModel(cfg, m))
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			ResetCaches()
			for _, pol := range Policies() {
				RunTraining(cfg, sim.Options{}, m, pol)
			}
			return false
		}()
		if (fitErr != nil) != panicked {
			t.Errorf("SPM %d bytes: CheckFit error %v, but a training step panicked=%v", spm, fitErr, panicked)
		}
		if fitErr != nil {
			rejects++
		} else {
			fits++
		}
	}
	if fits == 0 || rejects == 0 {
		t.Fatalf("bracket %d fits / %d rejects: the SPM sizes do not straddle the fit boundary (largest tile %d bytes)",
			fits, rejects, need)
	}
}
