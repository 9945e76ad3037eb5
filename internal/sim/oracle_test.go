package sim_test

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/refmodel"
	"igosim/internal/sim"
)

// TestCompiledMatchesInterpreter holds the compiled engine to the refmodel
// reference interpreter on every counter across configurations, kernel
// shapes and the free-dY study toggle.
func TestCompiledMatchesInterpreter(t *testing.T) {
	cfgs := map[string]config.NPU{
		"base":  sim.BaseCfg(),
		"tight": sim.TightCfg(),
		"burst": sim.BurstCfg(),
	}
	for cname, cfg := range cfgs {
		for kname, scheds := range sim.KernelSets() {
			for _, free := range []bool{false, true} {
				got := sim.RunSchedules(cfg, sim.Options{FreeDYOnDW: free}, scheds...)
				want := refmodel.ReplaySchedules(cfg, refmodel.Options{FreeDYOnDW: free}, scheds...)
				if err := refmodel.Compare(got, want); err != nil {
					t.Errorf("%s/%s freeDY=%v: %v", cname, kname, free, err)
				}
			}
		}
	}
}

// TestCompiledMultiMatchesInterpreter holds the multi-core engine to
// refmodel.ReplayMulti on every counter, in both scratchpad organisations.
func TestCompiledMultiMatchesInterpreter(t *testing.T) {
	cfg := sim.BaseCfg()
	cfg.Cores = 2
	cfg.SPMBytes = 1 << 10
	for _, shared := range []bool{true, false} {
		for _, free := range []bool{false, true} {
			got := sim.RunMultiPhased(cfg, sim.Options{FreeDYOnDW: free}, sim.MultiPhases(), shared)
			want := refmodel.ReplayMulti(cfg, refmodel.Options{FreeDYOnDW: free}, sim.MultiPhases(), shared)
			if err := refmodel.CompareMulti(got, want); err != nil {
				t.Errorf("shared=%v freeDY=%v: %v", shared, free, err)
			}
			if shared && want.SharedHits == 0 {
				t.Error("multi workload no longer produces shared hits — the comparison lost its cross-core coverage")
			}
		}
	}
}
