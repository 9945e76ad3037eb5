// Package dse is the design-space exploration engine: it scales cmd/sweep
// from the paper's ~dozen-point Section 6.4 grid to NeuSim-class sweeps of
// a million NPU design points. Three mechanisms make that tractable:
//
//   - an analytic pruner (bounds.go, prune.go) that computes per-point
//     lower bounds on cycles and DRAM traffic from internal/analytic's
//     distinct-tile floors and skips simulating points whose bounds are
//     already dominated by a simulated point on the (cycles, traffic,
//     reduction) frontier;
//   - sharded execution (run.go, checkpoint.go) that partitions the
//     flattened grid into deterministic runner.Shards, simulates each
//     shard through the runner's worker pool, writes one checkpoint file
//     per completed shard, and resumes interrupted sweeps byte-identically;
//   - Pareto extraction (pareto.go) over the simulated rows, plus a budget
//     mode that ranks unpruned points by bound tightness and spends a fixed
//     simulation budget where the analytic model is least certain.
//
// Everything is deterministic by construction: point order is a fixed
// mixed-radix decode of the grid index, shard boundaries are pure
// arithmetic, pruning decisions are made wave-by-wave against a frontier
// that only changes at wave boundaries, and all tie-breaking is by point
// index. The worker count (-j) affects wall-clock time only.
package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/workload"
)

// Space is a sweep's design-space specification: the cross product of the
// axis slices, flattened in fixed mixed-radix order (Cores slowest, then
// BWGBs, SPMMiB, TkCaps, Policies fastest). Axis values are taken in the
// order given — the spec is part of the checkpoint fingerprint, so a
// resumed sweep must use the identical Space.
type Space struct {
	// Model is the workload swept over.
	Model workload.Model
	// Base supplies every parameter the axes do not override.
	Base config.NPU
	// Cores, BWGBs (per-core GB/s), SPMMiB (per-core MiB) and TkCaps
	// (contraction-tile caps, 0 = default) are the hardware/tiling axes.
	Cores  []int
	BWGBs  []float64
	SPMMiB []float64
	TkCaps []int
	// Policies is the schedule-policy axis. Reduction at each point is
	// measured against the baseline policy on the same hardware.
	Policies []core.Policy
}

// Point is one decoded grid point.
type Point struct {
	Index  int
	Cores  int
	BWGB   float64
	SPMMiB float64
	TkCap  int
	Policy core.Policy
}

// Size returns the number of grid points.
func (s Space) Size() int {
	return len(s.Cores) * len(s.BWGBs) * len(s.SPMMiB) * len(s.TkCaps) * len(s.Policies)
}

// Validate reports an unusable specification (any empty axis).
func (s Space) Validate() error {
	switch {
	case len(s.Cores) == 0:
		return fmt.Errorf("dse: empty cores axis")
	case len(s.BWGBs) == 0:
		return fmt.Errorf("dse: empty bandwidth axis")
	case len(s.SPMMiB) == 0:
		return fmt.Errorf("dse: empty SPM axis")
	case len(s.TkCaps) == 0:
		return fmt.Errorf("dse: empty tiling axis")
	case len(s.Policies) == 0:
		return fmt.Errorf("dse: empty policy axis")
	}
	return nil
}

// Point decodes flat grid index i (0 <= i < Size) into its axis values.
func (s Space) Point(i int) Point {
	p := Point{Index: i}
	p.Policy = s.Policies[i%len(s.Policies)]
	i /= len(s.Policies)
	p.TkCap = s.TkCaps[i%len(s.TkCaps)]
	i /= len(s.TkCaps)
	p.SPMMiB = s.SPMMiB[i%len(s.SPMMiB)]
	i /= len(s.SPMMiB)
	p.BWGB = s.BWGBs[i%len(s.BWGBs)]
	i /= len(s.BWGBs)
	p.Cores = s.Cores[i]
	return p
}

// Config materialises the NPU configuration of one point. The result may be
// invalid (e.g. a zero-core corner); Run records Validate failures as
// skipped rows rather than aborting.
func (s Space) Config(p Point) config.NPU {
	cfg := s.Base.WithCores(p.Cores).WithBandwidth(p.BWGB * 1e9).WithTkCap(p.TkCap)
	cfg.SPMBytes = int64(math.Round(p.SPMMiB * float64(int64(1)<<20)))
	cfg.Name = fmt.Sprintf("sweep-%dc-%gGB-%gMiB-tk%d", p.Cores, p.BWGB, p.SPMMiB, p.TkCap)
	return cfg
}

// Fingerprint hashes the specification (model, base configuration and all
// axes). Checkpoint files carry it so a resume against a different spec is
// rejected instead of silently merging foreign rows.
func (s Space) Fingerprint() string {
	enc, err := json.Marshal(struct {
		Model    string
		Base     config.NPU
		Cores    []int
		BWGBs    []float64
		SPMMiB   []float64
		TkCaps   []int
		Policies []core.Policy
	}{s.Model.Abbr, s.Base, s.Cores, s.BWGBs, s.SPMMiB, s.TkCaps, s.Policies})
	if err != nil {
		panic("dse: unencodable space: " + err.Error())
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// Status classifies how a sweep decided one grid point.
type Status string

const (
	// StatusSimulated rows carry full simulation results.
	StatusSimulated Status = "sim"
	// StatusPruned rows were skipped because a simulated point dominates
	// their analytic bounds; PrunedBy names the witness.
	StatusPruned Status = "pruned"
	// StatusSkipped rows had an invalid configuration, or one whose SPM
	// cannot hold the model's tiles; Reason says why.
	StatusSkipped Status = "skipped"
	// StatusBudget rows were unpruned but beyond the -budget simulation
	// allowance.
	StatusBudget Status = "budget"
)

// Row is the outcome of one grid point. Analytic fields (CyclesLB,
// TrafficLB, RedCap, Balance) are filled for every valid point; simulation
// fields only on StatusSimulated rows.
type Row struct {
	Index  int    `json:"index"`
	Status Status `json:"status"`
	// Reason explains StatusSkipped rows (the Validate or tile-fit error).
	Reason string `json:"reason,omitempty"`

	// CyclesLB and TrafficLB are sound lower bounds on the point's
	// training-step cycles and total DRAM traffic; RedCap is an engineered
	// (conservative but unproven) upper estimate of its execution-time
	// reduction; Balance in [0,1] measures bound looseness (1 = least
	// certain), the budget mode's ranking key.
	CyclesLB  int64   `json:"cycles_lb"`
	TrafficLB int64   `json:"traffic_lb"`
	RedCap    float64 `json:"red_cap"`
	Balance   float64 `json:"balance"`
	// PrunedBy is the grid index of the dominating simulated point, -1
	// otherwise.
	PrunedBy int `json:"pruned_by"`

	// Simulation results (StatusSimulated only): baseline-policy and
	// point-policy training-step cycles, the point policy's total DRAM
	// traffic, its reduction vs baseline, and backward-pass residency
	// pressure.
	BaseCycles int64   `json:"base_cycles,omitempty"`
	IgoCycles  int64   `json:"igo_cycles,omitempty"`
	Traffic    int64   `json:"traffic,omitempty"`
	Reduction  float64 `json:"reduction,omitempty"`
	Evictions  int64   `json:"evictions,omitempty"`
	Spills     int64   `json:"spills,omitempty"`
}
