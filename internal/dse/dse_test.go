package dse

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/runner"
	"igosim/internal/workload"
)

// testSpace is a small but fully heterogeneous grid: every axis has at
// least two values, one SPM corner is invalid (exercising skipped rows),
// and both a baseline and the full policy stack are swept.
func testSpace() Space {
	return Space{
		Model:    workload.BERTTiny(),
		Base:     config.SmallNPU(),
		Cores:    []int{1, 2},
		BWGBs:    []float64{22, 11},
		SPMMiB:   []float64{1, 0.5},
		TkCaps:   []int{0, 64},
		Policies: []core.Policy{core.PolBaseline, core.PolPartition},
	}
}

func mustRun(t *testing.T, s Space, o Options) Result {
	t.Helper()
	res, err := Run(s, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func rowBytes(t *testing.T, r Row) []byte {
	t.Helper()
	enc, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestPointDecode(t *testing.T) {
	s := testSpace()
	if got, want := s.Size(), 32; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	seen := map[Point]bool{}
	for i := 0; i < s.Size(); i++ {
		p := s.Point(i)
		if p.Index != i {
			t.Fatalf("Point(%d).Index = %d", i, p.Index)
		}
		key := p
		key.Index = 0
		if seen[key] {
			t.Fatalf("duplicate axis combination at index %d: %+v", i, p)
		}
		seen[key] = true
	}
	// Policy is the fastest axis, cores the slowest.
	if s.Point(0).Policy != core.PolBaseline || s.Point(1).Policy != core.PolPartition {
		t.Fatal("policy should be the fastest-varying axis")
	}
	if s.Point(0).Cores != 1 || s.Point(s.Size()-1).Cores != 2 {
		t.Fatal("cores should be the slowest-varying axis")
	}
}

// TestBoundsBelowSimulation checks every simulated row against its own
// analytic bounds: the sound legs must hold exactly, and the engineered
// reduction cap must not under-estimate any observed reduction.
func TestBoundsBelowSimulation(t *testing.T) {
	res := mustRun(t, testSpace(), Options{})
	if res.Simulated == 0 {
		t.Fatal("no simulated rows")
	}
	for _, r := range res.Rows {
		if r.Status != StatusSimulated {
			continue
		}
		if r.CyclesLB > r.IgoCycles || r.CyclesLB > r.BaseCycles {
			t.Errorf("point %d: cycle bound %d above simulated (igo %d, base %d)", r.Index, r.CyclesLB, r.IgoCycles, r.BaseCycles)
		}
		if r.TrafficLB > r.Traffic {
			t.Errorf("point %d: traffic bound %d above simulated %d", r.Index, r.TrafficLB, r.Traffic)
		}
		if r.Reduction > r.RedCap {
			t.Errorf("point %d: reduction %.4f above cap %.4f", r.Index, r.Reduction, r.RedCap)
		}
	}
}

// TestPrunedMatchesUnpruned is the satellite equivalence check: every point
// the pruned sweep does simulate must be byte-identical to the unpruned
// sweep's row, and pruned rows must name a simulated witness.
func TestPrunedMatchesUnpruned(t *testing.T) {
	s := testSpace()
	full := mustRun(t, s, Options{})
	for _, tc := range []struct {
		name        string
		eps, epsRed float64
	}{
		{"exact", 0, 0},
		{"default", -1, -1},
		{"loose", 0.2, 0.2},
	} {
		pruned := mustRun(t, s, Options{Prune: true, Eps: tc.eps, EpsRed: tc.epsRed})
		if len(full.Rows) != len(pruned.Rows) {
			t.Fatalf("%s: row counts differ: %d vs %d", tc.name, len(full.Rows), len(pruned.Rows))
		}
		status := map[int]Status{}
		for i, r := range pruned.Rows {
			status[r.Index] = r.Status
			switch r.Status {
			case StatusSimulated:
				if got, want := rowBytes(t, r), rowBytes(t, full.Rows[i]); string(got) != string(want) {
					t.Errorf("%s point %d: pruned row %s != unpruned row %s", tc.name, r.Index, got, want)
				}
			case StatusPruned:
				if r.PrunedBy < 0 {
					t.Errorf("%s: point %d pruned without witness", tc.name, r.Index)
				}
			case StatusSkipped:
				if full.Rows[i].Status != StatusSkipped {
					t.Errorf("%s: point %d skipped only when pruning", tc.name, r.Index)
				}
			}
		}
		for _, r := range pruned.Rows {
			if r.Status == StatusPruned && status[r.PrunedBy] != StatusSimulated {
				t.Errorf("%s: point %d pruned by non-simulated point %d", tc.name, r.Index, r.PrunedBy)
			}
		}
		t.Logf("%s: pruned %d of %d (%d simulated, %d skipped)", tc.name, pruned.Pruned, len(pruned.Rows), pruned.Simulated, pruned.Skipped)
	}
}

// TestDeterministicAcrossWorkers re-runs the pruned sweep under different
// worker-pool widths and requires byte-identical rows.
func TestDeterministicAcrossWorkers(t *testing.T) {
	s := testSpace()
	o := Options{Prune: true, Eps: -1, EpsRed: -1, WaveSize: 4, ShardSize: 8}
	prev := runner.SetParallelism(1)
	defer runner.SetParallelism(prev)
	seq := mustRun(t, s, o)
	runner.SetParallelism(8)
	par := mustRun(t, s, o)
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(par)
	if string(a) != string(b) {
		t.Fatal("sweep results depend on worker count")
	}
}

// TestCheckpointResume kills a checkpointed sweep after one shard and
// resumes it, requiring the final result to be byte-identical to an
// uninterrupted run — including pruning decisions and witnesses.
func TestCheckpointResume(t *testing.T) {
	s := testSpace()
	base := Options{Prune: true, Eps: -1, EpsRed: -1, WaveSize: 4, ShardSize: 8}
	ref := mustRun(t, s, base)

	dir := t.TempDir()
	o := base
	o.CheckpointDir = dir
	o.MaxShards = 1
	killed := mustRun(t, s, o)
	if killed.Complete {
		t.Fatal("MaxShards run reported complete")
	}
	if len(killed.Rows) != 8 {
		t.Fatalf("killed run produced %d rows, want 8", len(killed.Rows))
	}

	o.MaxShards = 0
	o.Resume = true
	resumed := mustRun(t, s, o)
	if !resumed.Complete {
		t.Fatal("resumed run incomplete")
	}
	a, _ := json.Marshal(ref)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Fatal("resumed sweep differs from uninterrupted run")
	}

	// All four shard files must now exist and be complete.
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(shardPath(dir, i)); err != nil {
			t.Fatalf("missing checkpoint for shard %d: %v", i, err)
		}
	}

	// A resume against a different spec must be rejected.
	s2 := s
	s2.TkCaps = []int{0, 128}
	o2 := o
	if _, err := Run(s2, o2); err == nil {
		t.Fatal("resume accepted checkpoints from a different spec")
	}
}

// TestCorruptCheckpointRejected makes sure a torn or foreign file fails
// loudly instead of merging garbage rows.
func TestCorruptCheckpointRejected(t *testing.T) {
	s := testSpace()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-000000.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Run(s, Options{ShardSize: 8, CheckpointDir: dir, Resume: true})
	if err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// TestBudget caps simulations and checks the cap is spent on the least
// certain points.
func TestBudget(t *testing.T) {
	s := testSpace()
	res := mustRun(t, s, Options{Budget: 5, ShardSize: 8, WaveSize: 4})
	if res.Simulated > 5 {
		t.Fatalf("budget 5 exceeded: %d simulations", res.Simulated)
	}
	if res.Budgeted == 0 {
		t.Fatal("no rows marked over-budget")
	}
	// The budget must go to the highest-Balance valid points of the first
	// shard (within it, simulation order is balance-descending).
	var maxSkippedBal, minSimBal float64 = 0, 2
	for _, r := range res.Rows[:8] {
		switch r.Status {
		case StatusSimulated:
			minSimBal = min(minSimBal, r.Balance)
		case StatusBudget:
			maxSkippedBal = max(maxSkippedBal, r.Balance)
		}
	}
	if minSimBal < maxSkippedBal {
		t.Fatalf("budget spent on balance %.4f while %.4f was skipped", minSimBal, maxSkippedBal)
	}
}

// TestSkippedRows drives two corners through the sweep: an invalid one
// (zero-byte SPM) and a valid one whose SPM cannot hold the model's tiles,
// which used to panic the engine. Both must land as skipped rows with a
// reason, the latter the tile-fit error, not abort the run.
func TestSkippedRows(t *testing.T) {
	s := testSpace()
	s.SPMMiB = []float64{1, 0, 0.001}
	res := mustRun(t, s, Options{})
	if res.Simulated == 0 {
		t.Fatal("valid points not simulated")
	}
	for _, r := range res.Rows {
		spm := s.Point(r.Index).SPMMiB
		if (spm < 1) != (r.Status == StatusSkipped) {
			t.Errorf("point %d (SPM %g MiB) has status %s", r.Index, spm, r.Status)
		}
		if r.Status == StatusSkipped && r.Reason == "" {
			t.Errorf("point %d skipped without reason", r.Index)
		}
		if spm > 0 && spm < 1 && !strings.Contains(r.Reason, "tile of") {
			t.Errorf("point %d skipped with reason %q, want the tile-fit error", r.Index, r.Reason)
		}
	}
}

func TestParetoCanonical(t *testing.T) {
	rows := []Row{
		{Index: 0, Status: StatusSimulated, IgoCycles: 100, Traffic: 100, Reduction: 0.1},
		{Index: 1, Status: StatusSimulated, IgoCycles: 90, Traffic: 80, Reduction: 0.1},    // frontier
		{Index: 2, Status: StatusSimulated, IgoCycles: 100, Traffic: 100, Reduction: 0.1}, // dup of 0
		{Index: 3, Status: StatusSimulated, IgoCycles: 80, Traffic: 90, Reduction: 0.2},   // beats 0, 2
		{Index: 4, Status: StatusPruned, IgoCycles: 1, Traffic: 1, Reduction: 1},          // not simulated
		{Index: 5, Status: StatusSimulated, IgoCycles: 120, Traffic: 70, Reduction: 0.05}, // frontier
	}
	got := Pareto(rows)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Pareto = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Pareto = %v, want %v", got, want)
		}
	}
	// Order independence: any permutation yields the same frontier.
	perm := []Row{rows[5], rows[3], rows[0], rows[2], rows[4], rows[1]}
	got2 := Pareto(perm)
	for i := range got2 {
		if got2[i] != want[i] {
			t.Fatalf("Pareto(permuted) = %v, want %v", got2, want)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	s := testSpace()
	fp := s.Fingerprint()
	s2 := testSpace()
	if s2.Fingerprint() != fp {
		t.Fatal("fingerprint not reproducible")
	}
	s2.BWGBs = []float64{22, 12}
	if s2.Fingerprint() == fp {
		t.Fatal("fingerprint ignores axis values")
	}
	s3 := testSpace()
	s3.Base.DRAMLatency++
	if s3.Fingerprint() == fp {
		t.Fatal("fingerprint ignores base config")
	}
}
