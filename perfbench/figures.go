package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/experiments"
	"igosim/internal/workload"
)

// figuresOutput is the committed output of the figures CLI.
const figuresOutput = "results/figures_output.txt"

// figureIDs are the experiments the figures workload runs, in order: the
// paper's headline single-core study and its 1–8-core scaling study.
var figureIDs = []string{"fig12", "fig14"}

// figuresBench runs fig12 then fig14 through experiments.ByID and checks
// each report byte for byte against the committed figure output.
type figuresBench struct {
	want  map[string]string // report text by experiment id
	input []cell
}

func (b *figuresBench) cells() []cell { return b.input }

func setupFigures(options) (bench, error) {
	data, err := os.ReadFile(figuresOutput)
	if err != nil {
		return nil, err
	}
	b := &figuresBench{want: make(map[string]string)}
	for _, id := range figureIDs {
		if b.want[id], err = reportSection(string(data), id); err != nil {
			return nil, err
		}
	}
	// The figures' inputs, lowered: both NPUs under every policy for fig12,
	// the large NPU at 2–8 cores under baseline and the full stack for
	// fig14 (its one-core point is fig12's large NPU).
	small, large := config.SmallNPU(), config.LargeNPU()
	for _, c := range []struct {
		cfg   config.NPU
		suite []workload.Model
		pols  []core.Policy
	}{
		{small, workload.EdgeSuite(), core.Policies()},
		{large, workload.ServerSuite(), core.Policies()},
		{large.WithCores(2), workload.ServerSuite(), []core.Policy{core.PolBaseline, core.PolPartition}},
		{large.WithCores(4), workload.ServerSuite(), []core.Policy{core.PolBaseline, core.PolPartition}},
		{large.WithCores(8), workload.ServerSuite(), []core.Policy{core.PolBaseline, core.PolPartition}},
	} {
		for _, m := range c.suite {
			b.input = append(b.input, cell{cfg: c.cfg, plans: core.PlanModel(c.cfg, m), pols: c.pols})
		}
	}
	return b, nil
}

// reportSection extracts one experiment's printed report from the figures
// CLI output: from its "== id:" header up to the "[id took ...]" timing
// line that follows it.
func reportSection(out, id string) (string, error) {
	start := strings.Index(out, "== "+id+": ")
	if start < 0 {
		return "", fmt.Errorf("figure output has no %s section", id)
	}
	end := strings.Index(out[start:], "\n["+id+" took ")
	if end < 0 {
		return "", fmt.Errorf("figure output's %s section has no timing line", id)
	}
	return out[start : start+end+1], nil
}

//lint:walldomain host timings are the measurement itself
func (b *figuresBench) rep(tr *tracer, _ int) (repStats, error) {
	var st repStats
	for _, id := range figureIDs {
		sp := tr.begin("experiments." + id)
		t0 := time.Now()
		rep, err := experiments.ByID(id)
		st.wall += time.Since(t0).Seconds()
		tr.end(sp)
		if err != nil {
			return st, err
		}
		st.ops++
		if !figureMatches(rep, b.want[id]) {
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s report differs from results/figures_output.txt\n", id)
		}
	}
	return st, nil
}

// figureMatches reports whether rep prints exactly as the figures CLI
// printed want.
func figureMatches(rep experiments.Report, want string) bool {
	return rep.String()+"\n" == want
}
