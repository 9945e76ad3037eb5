package dse

import (
	"fmt"
	"os"
	"sort"

	"igosim/internal/core"
	"igosim/internal/metrics"
	"igosim/internal/runner"
	"igosim/internal/sim"
)

// Sweep counters. Cycle domain: absorb() runs on the sequential shard loop
// and rows carry deterministic statuses (the wave/prune schedule is
// byte-identical for any worker count), so these totals are manifest-safe.
// Checkpoint replays count too — a resumed sweep reports the same totals a
// fresh run would.
var mPoints = metrics.NewCounterVec("dse_points_total", "status",
	"design-space grid points absorbed, by row status", metrics.Cycle)

// Options steers one sweep execution.
type Options struct {
	// Prune enables the analytic pruner. Eps and EpsRed are the dominance
	// relaxations (see frontier.Dominates); negative values select the
	// defaults, zero means exactly-conservative pruning.
	Prune  bool
	Eps    float64
	EpsRed float64
	// Budget caps the number of simulated points (0 = unlimited). Within
	// the budget, waves are filled with the least analytically certain
	// points first (largest Balance).
	Budget int
	// ShardSize is the checkpoint granularity in grid points; WaveSize is
	// the pruning granularity (the frontier only changes between waves).
	// Zero selects the defaults. Both are part of the deterministic
	// schedule: changing either changes which points get pruned, so a
	// resume must use the values of the original run.
	ShardSize int
	WaveSize  int
	// CheckpointDir enables per-shard checkpoint files; Resume loads
	// completed shards from it instead of recomputing them. MaxShards > 0
	// stops after that many shards (exercises kill+resume in tests).
	CheckpointDir string
	Resume        bool
	MaxShards     int
	// Opts is passed through to the simulations.
	Opts sim.Options
	// Progress, when non-nil, is called after each shard with points
	// processed so far and the total.
	Progress func(done, total int)
}

// DefaultEps and DefaultEpsRed are the dominance relaxations used when
// Options leaves them negative: 2% on the cycle and traffic legs, 10
// percentage points on the reduction leg. The reduction default is wider
// because the engineered cap structurally overestimates achievable
// reduction by roughly the lower bound's own slack (see DESIGN.md section
// 3h); -eps-red 0 restores exactly-conservative pruning on that leg.
const (
	DefaultEps       = 0.02
	DefaultEpsRed    = 0.10
	defaultShardSize = 4096
	// The default wave still saturates a typical worker pool while keeping
	// the frontier fresh: points simulated within one wave can never prune
	// each other, so a wave much larger than the parallelism only costs
	// pruning opportunities.
	defaultWaveSize = 64
)

// Result is one sweep's outcome.
type Result struct {
	// Rows holds every grid point in index order.
	Rows []Row
	// Simulated/Pruned/Skipped/Budgeted count row statuses.
	Simulated, Pruned, Skipped, Budgeted int
	// Frontier holds the grid indices of the Pareto-optimal simulated rows.
	Frontier []int
	// Complete is false when MaxShards stopped the sweep early.
	Complete bool
}

// Run executes the sweep. Shards are processed sequentially in index order;
// within a shard, analytic bounds fan out over the runner's workers, then
// unpruned points are simulated in fixed-size waves. All ordering is by
// grid index and all frontier updates happen at wave boundaries, so results
// are byte-identical for any worker count, and a resumed run replays
// completed shards into exactly the state the original run had.
func Run(space Space, o Options) (Result, error) {
	if err := space.Validate(); err != nil {
		return Result{}, err
	}
	if o.Eps < 0 {
		o.Eps = DefaultEps
	}
	if o.EpsRed < 0 {
		o.EpsRed = DefaultEpsRed
	}
	if o.ShardSize <= 0 {
		o.ShardSize = defaultShardSize
	}
	if o.WaveSize <= 0 {
		o.WaveSize = defaultWaveSize
	}
	if o.Resume && o.CheckpointDir == "" {
		return Result{}, fmt.Errorf("dse: -resume requires a checkpoint directory")
	}
	if o.CheckpointDir != "" {
		if err := os.MkdirAll(o.CheckpointDir, 0o755); err != nil {
			return Result{}, err
		}
	}

	total := space.Size()
	st := &sweepState{
		space:       space,
		o:           o,
		fingerprint: space.Fingerprint(),
		bounds:      newBoundsCtx(space),
		rows:        make([]Row, 0, total),
		budgetLeft:  o.Budget,
	}
	shards := runner.Shards(total, o.ShardSize)
	done := len(shards)
	if o.MaxShards > 0 && o.MaxShards < done {
		done = o.MaxShards
	}
	for _, s := range shards[:done] {
		rows, err := st.shardRows(s)
		if err != nil {
			return Result{}, err
		}
		st.absorb(rows)
		if o.Progress != nil {
			o.Progress(s.Hi, total)
		}
	}

	res := Result{Rows: st.rows, Complete: done == len(shards)}
	for _, r := range st.rows {
		switch r.Status {
		case StatusSimulated:
			res.Simulated++
		case StatusPruned:
			res.Pruned++
		case StatusSkipped:
			res.Skipped++
		case StatusBudget:
			res.Budgeted++
		}
	}
	res.Frontier = Pareto(st.rows)
	return res, nil
}

// sweepState threads the cross-shard state: the frontier archive, the
// remaining simulation budget, and the accumulated rows.
type sweepState struct {
	space       Space
	o           Options
	fingerprint string
	bounds      *boundsCtx
	front       frontier
	rows        []Row
	budgetLeft  int
}

// absorb appends a shard's rows and feeds its simulated points into the
// frontier and budget accounting — identically whether the rows were just
// computed or replayed from a checkpoint, which is the resume determinism
// argument: the archive is a canonical (insertion-order-independent) set of
// maxima, so replay reconstructs the exact pre-shard state.
func (st *sweepState) absorb(rows []Row) {
	for _, r := range rows {
		mPoints.With(string(r.Status)).Inc()
		if r.Status == StatusSimulated {
			st.front.Add(simPoint{r.Index, r.IgoCycles, r.Traffic, r.Reduction})
			if st.o.Budget > 0 {
				st.budgetLeft--
			}
		}
	}
	st.rows = append(st.rows, rows...)
}

// shardRows produces one shard's rows, from the checkpoint when resuming or
// by computing (and then checkpointing) them.
func (st *sweepState) shardRows(s runner.Shard) ([]Row, error) {
	if st.o.Resume {
		rows, err := loadShard(st.o.CheckpointDir, s, st.fingerprint)
		if err != nil {
			return nil, err
		}
		if rows != nil {
			return rows, nil
		}
	}
	rows := st.computeShard(s)
	if st.o.CheckpointDir != "" {
		if err := writeShard(st.o.CheckpointDir, s, st.fingerprint, rows); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// computeShard runs one shard: bounds for every point (invalid configs,
// and configs whose SPM cannot hold the model's tiles, become skipped rows
// instead of aborting the sweep), then wave-by-wave
// pruning and simulation against the frontier as of the shard start.
func (st *sweepState) computeShard(s runner.Shard) []Row {
	o := st.o
	// Budget accounting here is a local projection; absorb() applies the
	// authoritative decrement once the rows are committed (the same code
	// path a checkpoint replay takes).
	budgetLeft := st.budgetLeft
	idxs := make([]int, s.Len())
	for i := range idxs {
		idxs[i] = s.Lo + i
	}
	rows := runner.Map(idxs, func(idx int) Row {
		p := st.space.Point(idx)
		cfg := st.space.Config(p)
		row := Row{Index: idx, PrunedBy: -1}
		if err := st.bounds.check(cfg); err != nil {
			row.Status = StatusSkipped
			row.Reason = err.Error()
			return row
		}
		b := st.bounds.bounds(cfg, p.Policy)
		row.CyclesLB, row.TrafficLB = b.Cycles, b.Traffic
		row.RedCap, row.Balance = b.RedCap, b.Balance
		return row
	})

	// Pending points in simulation priority order. The default order
	// (cheapest cycle bound first) seeds the frontier with points likely to
	// dominate many others; budget mode instead spends simulations where
	// the analytic model is least certain.
	var pending []int // positions into rows
	for i, r := range rows {
		if r.Status == "" {
			pending = append(pending, i)
		}
	}
	sort.SliceStable(pending, func(a, b int) bool {
		ra, rb := rows[pending[a]], rows[pending[b]]
		if o.Budget > 0 {
			if ra.Balance != rb.Balance {
				return ra.Balance > rb.Balance
			}
		} else if ra.CyclesLB != rb.CyclesLB {
			return ra.CyclesLB < rb.CyclesLB
		}
		return ra.Index < rb.Index
	})

	// Each pending point is classified exactly once, when it is popped as a
	// wave candidate, against the frontier as of that wave boundary. This is
	// equivalent to re-scanning the whole tail every wave — the archive only
	// grows, and a point that evicts a witness dominates everything the
	// witness dominated, so waiting can only confirm a prune, never undo one
	// — but costs O(pending) frontier scans per shard instead of
	// O(waves × pending). Only PrunedBy provenance can differ (a later
	// witness), and it stays deterministic. Pruning decisions within a wave
	// never see the wave's own simulations, so selection is independent of
	// simulation timing.
	for pos := 0; pos < len(pending); {
		var wave []int
		for pos < len(pending) && len(wave) < o.WaveSize && (o.Budget == 0 || budgetLeft-len(wave) > 0) {
			i := pending[pos]
			pos++
			r := &rows[i]
			if o.Prune {
				if w := st.front.Dominates(boundsOf(*r), o.Eps, o.EpsRed); w >= 0 {
					r.Status = StatusPruned
					r.PrunedBy = w
					continue
				}
			}
			wave = append(wave, i)
		}
		if len(wave) == 0 {
			// Budget exhausted: classify the tail against the final
			// frontier — pruned where a witness exists, over-budget
			// otherwise.
			for _, i := range pending[pos:] {
				r := &rows[i]
				if o.Prune {
					if w := st.front.Dominates(boundsOf(*r), o.Eps, o.EpsRed); w >= 0 {
						r.Status = StatusPruned
						r.PrunedBy = w
						continue
					}
				}
				r.Status = StatusBudget
			}
			break
		}
		sims := st.simulateWave(rows, wave)
		for k, i := range wave {
			rows[i] = sims[k]
			st.front.Add(simPoint{sims[k].Index, sims[k].IgoCycles, sims[k].Traffic, sims[k].Reduction})
			if o.Budget > 0 {
				budgetLeft--
			}
		}
	}
	return rows
}

func boundsOf(r Row) Bounds {
	return Bounds{Cycles: r.CyclesLB, Traffic: r.TrafficLB, RedCap: r.RedCap, Balance: r.Balance}
}

// simulateWave runs one wave's simulations, grouped by residency subkey:
// the point axes minus bandwidth ({cores, SPM, TkCap, policy}) determine
// the resolved hit/miss traces a simulation produces, so a wave holding a
// bandwidth sweep of one configuration resolves each trace exactly once.
// The first point of each subkey group runs in a leader pass; the rest run
// afterwards and replay the leaders' traces from the residency cache
// instead of racing the same resolution across workers. Results are
// scattered back in wave order, so classification and frontier updates are
// byte-identical to the ungrouped loop at any parallelism.
func (st *sweepState) simulateWave(rows []Row, wave []int) []Row {
	type subkey struct {
		cores  int
		spmMiB float64
		tkCap  int
		pol    core.Policy
	}
	sims := make([]Row, len(wave))
	var leaders, followers []int // positions within the wave
	seen := make(map[subkey]bool, len(wave))
	for k, i := range wave {
		p := st.space.Point(rows[i].Index)
		sk := subkey{p.Cores, p.SPMMiB, p.TkCap, p.Policy}
		if seen[sk] {
			followers = append(followers, k)
		} else {
			seen[sk] = true
			leaders = append(leaders, k)
		}
	}
	lead := runner.Map(leaders, func(k int) Row { return st.simulate(rows[wave[k]]) })
	for j, k := range leaders {
		sims[k] = lead[j]
	}
	if len(followers) > 0 {
		fol := runner.Map(followers, func(k int) Row { return st.simulate(rows[wave[k]]) })
		for j, k := range followers {
			sims[k] = fol[j]
		}
	}
	return sims
}

// simulate runs one point's baseline and point-policy training steps and
// fills the row's simulation fields. Baseline-policy points reuse the
// baseline run for both sides (reduction is identically zero there).
func (st *sweepState) simulate(row Row) Row {
	p := st.space.Point(row.Index)
	cfg := st.space.Config(p)
	base := core.RunTraining(cfg, st.o.Opts, st.space.Model, core.PolBaseline)
	run := base
	if p.Policy != core.PolBaseline {
		run = core.RunTraining(cfg, st.o.Opts, st.space.Model, p.Policy)
	}
	row.Status = StatusSimulated
	row.BaseCycles = base.TotalCycles()
	row.IgoCycles = run.TotalCycles()
	row.Traffic = run.BwdTraffic.Total()
	for _, l := range run.Fwd {
		row.Traffic += l.Traffic.Total()
	}
	row.Reduction = core.Improvement(base, run)
	for _, l := range run.Bwd {
		row.Evictions += l.SPM.Evictions
		row.Spills += l.Spills
	}
	return row
}
