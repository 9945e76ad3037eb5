// Command perfbench is the repository benchmark. It runs one workload —
// figures, sweep or serve — in this process, cold, for a fixed host-time
// budget, checks every output, and prints the result as one JSON line:
//
//	go run . --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (wall time,
// set-up time, throughput, latency, live heap); with --trace 1 it carries
// the per-layer metrics of a separate traced run (spans recorded around the
// benchmark's own calls into each layer, plus the counters the program
// already exports). README.md lists the metrics, the workloads and what
// each layer is predicted to move.
//
// Every repetition starts from empty host-side caches (core.ResetCaches),
// and every simulation from an empty modelled scratchpad, because each CLI
// invocation and each new igoserved pays that cost.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"igosim/internal/core"
	"igosim/internal/runner"
)

// setupSamples is how many fresh processes the set-up time is measured in;
// the reported set-up time is their median.
const setupSamples = 21

// bench is one workload after set-up.
type bench interface {
	// rep runs one cold repetition. k numbers the repetition within the
	// run and selects its inputs where they vary by repetition (serve's
	// streams). tr is nil on untraced runs; a traced repetition records a
	// span around each call it makes into a layer.
	rep(tr *tracer, k int) (repStats, error)
	// cells lists the workload's inputs for the traced layer walk, as of
	// the latest repetition.
	cells() []cell
}

// repStats is one repetition's outcome.
type repStats struct {
	wall   float64 // host seconds spent in the timed calls
	ops    int     // operations attempted
	failed int     // operations failed, failed output checks included
	// latMs holds per-operation latencies in milliseconds where the
	// workload observes them one by one (serve); batch workloads leave it
	// empty and report wall ÷ ops instead.
	latMs []float64
	// layer carries the workload's own per-layer counters (traced
	// repetitions only).
	layer map[string]float64
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	width    int
}

func main() {
	var o options
	var traceFlag int
	var seconds int
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print the completion time in Unix nanoseconds and exit (set-up timing child)")
	flag.StringVar(&o.workload, "workload", "", "workload to run: figures, sweep or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed (drives the serve request stream)")
	flag.IntVar(&seconds, "seconds", 10, "host seconds to measure for")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.seconds = float64(seconds)
	o.trace = traceFlag == 1
	o.width = runtime.NumCPU()

	if _, err := os.Stat(figuresOutput); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	if *setupOnly {
		if err := setupChild(o); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	host, _ := json.Marshal(map[string]any{"host": hostFacts(o)})
	fmt.Println(string(host))
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// setup builds one workload's inputs.
func setup(o options) (bench, error) {
	runner.SetParallelism(o.width)
	switch o.workload {
	case "figures":
		return setupFigures(o)
	case "sweep":
		return setupSweep(o)
	case "serve":
		return setupServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, sweep or serve)", o.workload)
}

// setupChild is the set-up timing child: it sets the workload up and
// prints the moment it finished, in Unix nanoseconds.
//
//lint:walldomain the completion timestamp is the set-up measurement
func setupChild(o options) error {
	if _, err := setup(o); err != nil {
		return err
	}
	fmt.Println(time.Now().UnixNano())
	return nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists every end-to-end metric an untraced run prints, with its
// unit. Batch workloads (figures, sweep) observe no per-operation
// latency; their p50_ms and p99_ms read the mean host time per operation.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"retained_heap_mb", "MB"},
}

// run sets the workload up, measures it and assembles the result.
func run(o options) (result, error) {
	b, err := setup(o)
	if err != nil {
		return result{}, err
	}
	var setupS float64
	if !o.trace {
		if setupS, err = measureSetup(o); err != nil {
			return result{}, err
		}
	}
	return measure(o, b, setupS)
}

// measure runs a set-up workload, traced or untraced, while sampling the
// live heap.
func measure(o options, b bench, setupS float64) (result, error) {
	heap := startHeapSampler()
	var res result
	var err error
	if o.trace {
		res, err = tracedRun(o, b)
	} else {
		res, err = untracedRun(o, b)
	}
	peak, retained := heap.stop()
	if err != nil {
		return result{}, err
	}
	if !o.trace {
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["peak_heap_mb"] = metric{peak / 1e6, "MB"}
		res.Metrics["retained_heap_mb"] = metric{retained / 1e6, "MB"}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// untracedRun repeats the workload, cold each time, until the time budget
// is spent, and reports medians over the repetitions.
//
//lint:walldomain host timings are the measurement itself
func untracedRun(o options, b bench) (result, error) {
	var reps []repStats
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < o.seconds {
		coldStart()
		r, err := b.rep(nil, len(reps))
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: %.3f s, %d operations, %d failed\n",
			o.workload, len(reps), r.wall, r.ops, r.failed)
	}
	var walls, rates, perOp, lat []float64
	res := result{Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Attempted += r.ops
		res.Failed += r.failed
		walls = append(walls, r.wall)
		rates = append(rates, float64(r.ops)/r.wall)
		perOp = append(perOp, 1e3*r.wall/float64(r.ops))
		lat = append(lat, r.latMs...)
	}
	p50, p99 := median(perOp), median(perOp)
	if len(lat) > 0 {
		// Pooled over repetitions: each repetition's stream has its own
		// cold requests (see genStream).
		p50, p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	}
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["ops_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["p50_ms"] = metric{p50, "ms"}
	res.Metrics["p99_ms"] = metric{p99, "ms"}
	return res, nil
}

// coldStart drops every host-side cache and collects the garbage of the
// previous repetition, outside any timed region.
func coldStart() {
	core.ResetCaches()
	runtime.GC()
}

// measureSetup times the workload's set-up in fresh processes: from just
// before each child starts to the moment it has its inputs ready, which
// covers process start, package initialisation and the workload's own
// set-up. It reports the median over setupSamples children.
//
//lint:walldomain set-up time is host time by definition
func measureSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var samples []float64
	for i := 0; i < setupSamples; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		begin := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		doneNs, err := strconv.ParseInt(strings.TrimSpace(out.String()), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("set-up child printed %q: %w", out.String(), err)
		}
		samples = append(samples, float64(doneNs-begin.UnixNano())/1e9)
	}
	return median(samples), nil
}

// heapSampler tracks the highest live heap the runtime reports.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak float64
}

// startHeapSampler polls /gc/heap/live:bytes (updated at the end of every
// GC cycle) until stop.
//
//lint:walldomain the polling ticker paces host-side sampling only
func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.observe()
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() float64 {
	v := readMetric("/gc/heap/live:bytes")
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
	return v
}

// stop ends sampling, forces a final collection and returns the peak and
// the live heap retained after it, both in bytes.
func (h *heapSampler) stop() (peak, retained float64) {
	close(h.done)
	h.wg.Wait()
	runtime.GC()
	retained = h.observe()
	return h.peak, retained
}

// readMetric reads one runtime/metrics value as a float64.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// hostFacts describes the machine a result was measured on; results from
// different hosts are not comparable.
func hostFacts(o options) map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"pool_width":  o.width,
		"go_version":  runtime.Version(),
		"mem_total_b": memTotal(),
	}
}

// memTotal reads MemTotal from /proc/meminfo (0 where unavailable).
func memTotal() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "MemTotal:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	return s[min(i, len(s)-1)]
}
