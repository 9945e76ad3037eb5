package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dse"
	"igosim/internal/workload"
)

// sweepDigest is the digest of the sweep grid's simulated rows and Pareto
// frontier (sweepOutputDigest), recorded once and cross-checked against
// an unpruned sweep with the residency cache disabled
// (TestSweepDigestCrossCheck).
const sweepDigest = "802078ed2a305de0df02987d4ea214533134e3a08df5d918224e232ff0f34dde"

// sweepGrid is the canonical design-space sweep (BERT-tiny on the small
// NPU) with its axes densified: 400 log-spaced bandwidths from 16 to
// 256 GB/s, SPM {1,2,4,8} MiB, contraction-tile caps {0,16,32,64} and
// all four policies — 25,600 points.
func sweepGrid() dse.Space {
	const n, lo, hi = 400, 16.0, 256.0
	bws := make([]float64, n)
	for i := range bws {
		bws[i] = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
	}
	return dse.Space{
		Model:    workload.BERTTiny(),
		Base:     config.SmallNPU(),
		Cores:    []int{1},
		BWGBs:    bws,
		SPMMiB:   []float64{1, 2, 4, 8},
		TkCaps:   []int{0, 16, 32, 64},
		Policies: core.Policies(),
	}
}

// sweepOptions are the canonical pruned-sweep settings.
func sweepOptions() dse.Options { return dse.Options{Prune: true, Eps: -1, EpsRed: -1} }

type sweepBench struct {
	space dse.Space
	last  dse.Result
}

func setupSweep(options) (bench, error) {
	s := sweepGrid()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &sweepBench{space: s}, nil
}

//lint:walldomain host timings are the measurement itself
func (b *sweepBench) rep(tr *tracer, _ int) (repStats, error) {
	sp := tr.begin("dse.run")
	t0 := time.Now()
	res, err := dse.Run(b.space, sweepOptions())
	wall := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return repStats{}, err
	}
	b.last = res
	st := repStats{wall: wall, ops: len(res.Rows)}
	// Every point must be classified (simulated or pruned); skipped and
	// budget rows are failures, and a digest mismatch fails them all.
	st.failed = res.Skipped + res.Budgeted
	if got := sweepOutputDigest(res); got != sweepDigest {
		st.failed = len(res.Rows)
		fmt.Fprintf(os.Stderr, "perfbench: sweep digest %s, want %s\n", got, sweepDigest)
	}
	if tr != nil {
		st.layer = map[string]float64{
			"dse.pruned_fraction":  float64(res.Pruned) / float64(len(res.Rows)),
			"dse.simulated_points": float64(res.Simulated),
		}
	}
	return st, nil
}

// sweepOutputDigest hashes every simulated row, in grid order, and the
// Pareto frontier.
func sweepOutputDigest(res dse.Result) string {
	h := sha256.New()
	enc := json.NewEncoder(h) // rows always encode, and hash writes never fail
	for _, r := range res.Rows {
		if r.Status == dse.StatusSimulated {
			enc.Encode(r)
		}
	}
	enc.Encode(res.Frontier)
	return hex.EncodeToString(h.Sum(nil))
}

// cells groups the latest repetition's simulated points by residency
// configuration (SPM, tile cap): the walk resolves each program once per
// configuration and replays it at every bandwidth the sweep simulated
// there.
func (b *sweepBench) cells() []cell {
	type cfgKey struct {
		spm float64
		tk  int
	}
	bws := make(map[cfgKey][]float64)
	seenBW := make(map[cfgKey]map[float64]bool)
	var order []cfgKey
	for _, r := range b.last.Rows {
		if r.Status != dse.StatusSimulated {
			continue
		}
		p := b.space.Point(r.Index)
		k := cfgKey{p.SPMMiB, p.TkCap}
		if seenBW[k] == nil {
			seenBW[k] = make(map[float64]bool)
			order = append(order, k)
		}
		if !seenBW[k][p.BWGB] {
			seenBW[k][p.BWGB] = true
			bws[k] = append(bws[k], p.BWGB*1e9)
		}
	}
	var out []cell
	for _, k := range order {
		pt := dse.Point{Cores: 1, BWGB: b.space.BWGBs[0], SPMMiB: k.spm, TkCap: k.tk}
		cfg := b.space.Config(pt)
		out = append(out, cell{
			cfg:   cfg,
			plans: core.PlanModel(cfg, b.space.Model),
			pols:  b.space.Policies,
			bws:   bws[k],
		})
	}
	return out
}
