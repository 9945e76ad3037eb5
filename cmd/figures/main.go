// Command figures regenerates the paper's evaluation artifacts: every
// figure of Sections 3 and 6 plus the Section 4.3 and Section 5 studies.
//
// Usage:
//
//	figures -fig 12         # one experiment (fig3 fig5 fig6 fig12 fig13
//	                        #  fig14 fig15 fig16 fig17 alg1 knn)
//	figures -fig all        # everything, in paper order
//	figures -fig knn -trials 1000
//	figures -fig 12 -csv    # machine-readable table output
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"igosim/internal/experiments"
	"igosim/internal/metrics"
	"igosim/internal/runner"
	"igosim/internal/trace"
)

// main times each experiment for the stderr progress report; figure and
// table bytes are derived from simulation results alone.
//
//lint:walldomain per-experiment wall timings go to stderr only
func main() {
	var (
		fig        = flag.String("fig", "all", "experiment id or 'all': "+strings.Join(experiments.IDs(), " "))
		trials     = flag.Int("trials", experiments.DefaultKNNTrials, "KNN study repetitions")
		seed       = flag.Int64("knn-seed", experiments.DefaultKNNSeed, "KNN study split-shuffle seed")
		csv        = flag.Bool("csv", false, "emit tables as CSV")
		timing     = flag.Bool("time", false, "print wall-clock time per experiment")
		jobs       = flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		traceOut   = flag.String("trace", "", "write Chrome trace-event JSON of the run to this file (view in Perfetto)")
		report     = flag.Bool("report", false, "print the trace-derived report: stall attribution, SPM occupancy, reuse distances")
		manifest   = flag.String("manifest", "", "write the deterministic run manifest (JSON, report digests) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	stopProf, err := metrics.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	runner.SetParallelism(*jobs)
	stopTrace := trace.StartCLI(*traceOut, *report)

	ids := experiments.IDs()
	if *fig != "all" {
		ids = strings.Split(*fig, ",")
	}

	// Experiments fan out through the runner (each is itself internally
	// parallel, sharing the same worker budget and memo cache); reports are
	// printed afterwards in request order, so output is identical at any -j.
	type timed struct {
		rep     experiments.Report
		elapsed time.Duration
	}
	reports, err := runner.MapErr(context.Background(), ids, func(_ context.Context, id string) (timed, error) {
		start := time.Now()
		var rep experiments.Report
		var err error
		if strings.EqualFold(id, "knn") || strings.EqualFold(id, "sec5") {
			rep = experiments.KNNSelectionSeeded(*trials, *seed)
		} else {
			rep, err = experiments.ByID(id)
			if err != nil {
				return timed{}, err
			}
		}
		return timed{rep: rep, elapsed: time.Since(start)}, nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}

	for _, r := range reports {
		rep := r.rep
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", rep.ID, rep.Title, rep.Table.CSV())
			for _, s := range rep.Summary {
				fmt.Println("#", s)
			}
		} else {
			fmt.Println(rep)
		}
		if *timing {
			fmt.Printf("[%s took %.1fs]\n\n", rep.ID, r.elapsed.Seconds())
		}
	}
	if err := stopTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	if *manifest != "" {
		// Each report is pinned by the content hash of its CSV table plus
		// summary lines: a manifest diff catches any change to an evaluation
		// artifact without embedding the whole table.
		m := metrics.NewManifest("figures")
		if err := m.SetFingerprint(struct {
			Tool   string   `json:"tool"`
			IDs    []string `json:"ids"`
			Trials int      `json:"trials"`
			Seed   int64    `json:"seed"`
		}{"figures", ids, *trials, *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		for _, r := range reports {
			rep := r.rep
			m.Reports = append(m.Reports, metrics.ReportDigest{
				ID:     rep.ID,
				Title:  rep.Title,
				SHA256: metrics.Digest([]byte(rep.Table.CSV() + "\n" + strings.Join(rep.Summary, "\n"))),
			})
		}
		m.Finalize(metrics.Default())
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}
