// Command igoserved serves the simulator over HTTP — simulation as a
// service. Clients POST (workload, NPU config, options) JSON to /simulate
// (or a request list to /batch) and receive the schedule choice, cycles,
// per-class DRAM traffic, energy and optionally the trace report; every
// client of one igoserved process shares the result, layer-memo, tuner and
// resolved-trace caches, so a fleet of experiment scripts pays for each
// distinct simulation once.
//
// Endpoints:
//
//	POST /simulate  one request  -> one result (X-Igosim-Cache: hit|miss|coalesced)
//	POST /batch     request list -> results in order, -j fan-out
//	GET  /healthz   liveness (503 once draining)
//	GET  /metrics   Prometheus text exposition (?format=json for JSON)
//	POST /reset     flush every cache (only with -reset)
//
// Response bodies are a pure function of the request — byte-identical at
// any -j, any cache state, any request interleaving. Cache status and
// timing travel in headers and /metrics only.
//
// Shutdown: SIGINT/SIGTERM starts draining — /healthz flips to 503, new
// simulation requests are refused, in-flight requests get up to
// -drain-timeout to finish — then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"igosim/internal/runner"
	"igosim/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8606", "listen address")
		jobs         = flag.Int("j", 0, "max concurrent simulations across all requests (0 = GOMAXPROCS; affects latency only, never response bodies)")
		cacheCap     = flag.Int("cache-cap", 256, "result-cache capacity in entries (negative disables caching, keeping in-flight deduplication)")
		timeout      = flag.Duration("timeout", 2*time.Minute, "per-request budget including queueing (exceeding it yields 504)")
		maxBatch     = flag.Int("max-batch", 64, "max requests per /batch call")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown grace period for in-flight requests")
		reset        = flag.Bool("reset", false, "expose POST /reset (flushes every cache; operator use)")
	)
	flag.Parse()
	if *jobs > 0 {
		runner.SetParallelism(*jobs)
	}

	s := serve.New(serve.Options{
		CacheCap:    *cacheCap,
		Timeout:     *timeout,
		MaxBatch:    *maxBatch,
		Parallel:    *jobs,
		EnableReset: *reset,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: the first signal starts draining (load balancers
	// see /healthz fail, new simulations get 503) and hands in-flight
	// requests the grace period; a second signal aborts immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop() // restore default signal handling: a second signal kills us
		s.StartDraining()
		fmt.Fprintln(os.Stderr, "igoserved: draining")
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		done <- hs.Shutdown(sctx)
	}()

	fmt.Printf("igoserved: listening on http://%s (j=%d, cache-cap=%d)\n",
		*addr, runner.Parallelism(), *cacheCap)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "igoserved:", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "igoserved: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("igoserved: drained, bye")
}
