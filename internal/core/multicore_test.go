package core

import (
	"fmt"
	"testing"

	"igosim/internal/config"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/workload"
)

// emittedMultiPlan is the emit-and-intern reference for runMultiPlanPolicy
// (and, with dwOnly, runMultiPlan): every part's kernels emitted as op
// streams, kernel k of every part one phase of sim.RunMultiPhased.
func emittedMultiPlan(cfg config.NPU, plan Plan, pol Policy, shared, dwOnly bool) LayerOutcome {
	var phases [][][]schedule.Op
	var order Order
	for _, sub := range plan.Parts {
		var kernels []schedule.Schedule
		if dwOnly {
			kernels = []schedule.Schedule{TunedDWOnly(cfg, sub)}
		} else {
			kernels, order = BackwardKernels(cfg, sub, pol, false)
		}
		for k, kernel := range kernels {
			if k >= len(phases) {
				phases = append(phases, nil)
			}
			phases[k] = append(phases[k], kernel.Ops)
		}
	}
	out := finishMulti(cfg, sim.RunMultiPhased(cfg, sim.Options{}, phases, shared), plan)
	out.Order = order
	out.Scheme = plan.Scheme
	out.Parts = len(plan.Parts)
	return out
}

// emittedBackwardMulti is runBackwardMulti's dispatch over the emitted
// reference.
func emittedBackwardMulti(cfg config.NPU, p schedule.TileParams, pol Policy, skipDX bool) LayerOutcome {
	var out LayerOutcome
	switch {
	case skipDX:
		out = emittedMultiPlan(cfg, PartitionLayer(p, WeightSharing, cfg.Cores), PolBaseline, false, true)
	case pol == PolPartition:
		for i, scheme := range Schemes() {
			cand := emittedMultiPlan(cfg, PartitionLayer(p, scheme, cfg.Cores), PolRearrange, true, false)
			if i == 0 || cand.Cycles < out.Cycles {
				out = cand
			}
		}
	default:
		out = emittedMultiPlan(cfg, PartitionLayer(p, WeightSharing, cfg.Cores), pol, false, false)
	}
	out.Policy = pol
	out.Dims = p.Dims
	return out
}

// TestMultiCoreGatherMatchesEmitted holds the multi-core paths, which run
// per-core programs gathered from a plan's bases, to the emit-and-intern
// reference on zoo layers: every policy × scheme × placement at 2, 4 and
// 8 cores plan by plan, the dW-only plan, and RunBackwardMulti for every
// policy with and without dX. Every LayerOutcome field must match.
func TestMultiCoreGatherMatchesEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates zoo layers at three core counts")
	}
	ResetCaches()
	defer ResetCaches()
	var layers []schedule.TileParams
	for _, want := range []struct{ model, layer string }{
		{"ncf", "mlp1"},
		{"rcnn", "conv2_1_3x3a"},
		{"res", "fc1000"},
	} {
		m, err := workload.ByAbbr(workload.ServerSuite(), want.model)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, lp := range PlanModel(config.SmallNPU(), m) {
			if lp.Layer.Name == want.layer {
				layers, found = append(layers, lp.Params), true
			}
		}
		if !found {
			t.Fatalf("%s has no layer %s", want.model, want.layer)
		}
	}
	for _, cores := range []int{2, 4, 8} {
		cfg := config.SmallNPU().WithCores(cores)
		for _, p := range layers {
			at := fmt.Sprintf("%v at %d cores", p.Dims, cores)
			for _, scheme := range Schemes() {
				plan := PartitionLayer(p, scheme, cores)
				for _, pol := range Policies() {
					for _, shared := range []bool{false, true} {
						got := runMultiPlanPolicy(cfg, sim.Options{}, plan, pol, shared)
						if want := emittedMultiPlan(cfg, plan, pol, shared, false); got != want {
							t.Fatalf("%s %v %v shared=%v:\ngathered %+v\nemitted  %+v", at, scheme, pol, shared, got, want)
						}
					}
				}
				if got, want := runMultiPlan(cfg, sim.Options{}, plan, true), emittedMultiPlan(cfg, plan, PolBaseline, false, true); got != want {
					t.Fatalf("%s %v dW-only:\ngathered %+v\nemitted  %+v", at, scheme, got, want)
				}
			}
			for _, pol := range Policies() {
				for _, skipDX := range []bool{false, true} {
					got := RunBackwardMulti(cfg, sim.Options{}, p, pol, skipDX)
					if want := emittedBackwardMulti(cfg, p, pol, skipDX); got != want {
						t.Fatalf("%s RunBackwardMulti %v skipDX=%v:\ngathered %+v\nemitted  %+v", at, pol, skipDX, got, want)
					}
				}
			}
		}
	}
}
