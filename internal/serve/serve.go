package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"igosim/internal/core"
	"igosim/internal/metrics"
	"igosim/internal/runner"
	"igosim/internal/stats"
)

// Server wires the simulation API onto an http.ServeMux. One Server owns
// one result cache and one admission limiter; cmd/igoserved runs exactly
// one per process so every client shares the layer-memo, tuner and
// resolved-trace caches underneath.
type Server struct {
	opts    Options
	cache   *resultCache
	limiter *runner.Limiter
	mux     *http.ServeMux

	// draining is closed-over state for graceful shutdown: once set (via
	// StartDraining), new requests are refused with 503 while in-flight
	// ones finish.
	draining chan struct{}
}

// Options configure a Server. The zero value is usable: defaults fill in
// on New.
type Options struct {
	// CacheCap bounds the result cache's entry count (default 256;
	// negative disables result caching, keeping singleflight).
	CacheCap int
	// Timeout bounds each request's total latency, including queueing
	// behind the admission limiter (default 120s). Exceeding it yields 504
	// with code deadline_exceeded.
	Timeout time.Duration
	// MaxBatch bounds the request count of one /batch call (default 64).
	MaxBatch int
	// Parallel bounds concurrent simulations across all requests
	// (default: the runner's parallelism, i.e. -j).
	Parallel int
	// EnableReset exposes POST /reset (cache flush). Off by default:
	// flushing shared caches is an operator action, not a client one.
	EnableReset bool
}

func (o Options) withDefaults() Options {
	if o.CacheCap == 0 {
		o.CacheCap = 256
	}
	if o.CacheCap < 0 {
		o.CacheCap = 0
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	return o
}

// maxBodyBytes bounds request bodies; a full custom config plus options is
// well under 1 KiB, so 1 MiB leaves room for large /batch payloads.
const maxBodyBytes = 1 << 20

// serveCounters is the result cache's process-wide stats entry. Wall
// domain: hit/miss splits depend on arrival order and concurrency.
var serveCounters = stats.NewCacheCounters("serve/result")

// Request-level counters (Wall: request arrival is host behaviour).
var (
	mRequests = metrics.NewCounter("serve_requests_total",
		"simulation requests received (including batch members)", metrics.Wall)
	mErrors = metrics.NewCounter("serve_errors_total",
		"requests answered with a structured error", metrics.Wall)
)

// New builds a Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		limiter:  runner.NewLimiter(opts.Parallel),
		mux:      http.NewServeMux(),
		draining: make(chan struct{}),
	}
	s.cache = newResultCache(opts.CacheCap, serveCounters, s.limiter)
	s.mux.HandleFunc("/simulate", s.handleSimulate)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", metrics.Handler())
	if opts.EnableReset {
		s.mux.HandleFunc("/reset", s.handleReset)
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDraining flips the server into shutdown mode: /healthz starts
// failing (so load balancers stop routing here) and new simulation
// requests get 503; requests already in flight run to completion under
// http.Server.Shutdown's usual draining.
func (s *Server) StartDraining() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// ResetCaches empties every cache the server can reach: its own result
// cache (and doorkeeper memory), plus the simulator's layer memo,
// schedule-tuning and resolved-trace caches via core.ResetCaches.
func (s *Server) ResetCaches() {
	s.cache.Reset()
	core.ResetCaches()
}

// CacheStats returns the result cache's counter snapshot.
func (s *Server) CacheStats() stats.CacheSnapshot { return serveCounters.Snapshot() }

// writeError emits the structured error body with the given HTTP status.
func writeError(w http.ResponseWriter, status int, e *Error) {
	mErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(struct {
		Error *Error `json:"error"`
	}{e})
	w.Write(append(body, '\n'))
}

// statusFor maps error codes to HTTP statuses.
func statusFor(e *Error) int {
	switch e.Code {
	case CodeBadJSON, CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnknownModel:
		return http.StatusNotFound
	case CodeInvalidConfig:
		return http.StatusUnprocessableEntity
	case CodeBatchTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeShuttingDown:
		return http.StatusServiceUnavailable
	case CodeMethodNotWanted:
		return http.StatusMethodNotAllowed
	}
	return http.StatusInternalServerError
}

// decode reads one JSON value from the request body, rejecting trailing
// garbage and oversized payloads.
func decode(w http.ResponseWriter, r *http.Request, v any) *Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &Error{Code: CodeBadJSON, Message: err.Error()}
	}
	if dec.More() {
		return &Error{Code: CodeBadJSON, Message: "trailing data after JSON value"}
	}
	return nil
}

// preflight handles the checks shared by the simulation endpoints,
// reporting false after writing an error response.
func (s *Server) preflight(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed,
			&Error{Code: CodeMethodNotWanted, Message: "use POST"})
		return false
	}
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable,
			&Error{Code: CodeShuttingDown, Message: "server is draining"})
		return false
	}
	return true
}

// simulate resolves, fingerprints and evaluates one request through the
// result cache, returning the exact marshaled body.
func (s *Server) simulate(ctx context.Context, req Request) (body []byte, status string, e *Error) {
	mRequests.Inc()
	res, e := canonicalize(req)
	if e != nil {
		return nil, "", e
	}
	fp, err := res.fingerprint()
	if err != nil {
		return nil, "", &Error{Code: CodeBadRequest, Message: "unfingerprintable request: " + err.Error()}
	}
	return s.cache.Get(ctx, fp, func() ([]byte, *Error) {
		resp := Evaluate(res)
		resp.Fingerprint = fp
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, &Error{Code: "internal", Message: err.Error()}
		}
		return append(b, '\n'), nil
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if !s.preflight(w, r) {
		return
	}
	var req Request
	if e := decode(w, r, &req); e != nil {
		writeError(w, statusFor(e), e)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	body, status, e := s.simulate(ctx, req)
	if e != nil {
		writeError(w, statusFor(e), e)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Igosim-Cache", status)
	w.Write(body)
}

// BatchResponse is the /batch response envelope: results in request
// order, each either a result or a structured error.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// BatchItem is one /batch member's outcome. Exactly one of Result and
// Error is set; Result is the raw /simulate body (already-marshaled JSON).
type BatchItem struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  *Error          `json:"error,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.preflight(w, r) {
		return
	}
	var reqs []Request
	if e := decode(w, r, &reqs); e != nil {
		writeError(w, statusFor(e), e)
		return
	}
	if len(reqs) > s.opts.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, badRequest(CodeBatchTooLarge,
			"batch of %d exceeds the limit of %d", len(reqs), s.opts.MaxBatch))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()

	// Members fan out through the runner's worker pool — the same -j
	// semantics as the CLI grids — while the admission limiter keeps total
	// simulation concurrency bounded across every in-flight request.
	items := runner.Map(reqs, func(req Request) BatchItem {
		body, _, e := s.simulate(ctx, req)
		if e != nil {
			return BatchItem{Error: e}
		}
		return BatchItem{Result: json.RawMessage(body)}
	})
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(BatchResponse{Results: items})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed,
			&Error{Code: CodeMethodNotWanted, Message: "use POST"})
		return
	}
	s.ResetCaches()
	fmt.Fprintln(w, "reset")
}
