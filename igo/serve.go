package igo

import (
	"net/http"

	"igosim/internal/serve"
)

// Serving: the simulation-as-a-service layer behind cmd/igoserved.
// ServeHandler returns the full HTTP API — POST /simulate and /batch,
// GET /healthz and /metrics — for embedding in a host process; response
// bodies are a pure function of the request (byte-identical at any
// parallelism or cache state), with cache status and timings confined to
// headers and /metrics.

// ServeRequest is one simulation query (workload, NPU config, options).
type ServeRequest = serve.Request

// ServeResponse is one simulation result.
type ServeResponse = serve.Response

// ServeOptions configure the service: cache capacity, per-request
// timeout, batch limit, simulation concurrency. The zero value is usable.
type ServeOptions = serve.Options

// ServeServer is a configured service instance; see ServeHandler.
type ServeServer = serve.Server

// NewServer builds a service instance. Run one per process: every client
// then shares the result, layer-memo, tuner and resolved-trace caches.
func NewServer(opts ServeOptions) *ServeServer { return serve.New(opts) }

// ServeHandler builds a service instance with the given options and
// returns its HTTP handler, for mounting into an existing mux.
func ServeHandler(opts ServeOptions) http.Handler { return serve.New(opts).Handler() }

// ServeFingerprint canonicalizes a request and returns its cache key:
// requests sharing a fingerprint share one cache entry and one
// simulation.
func ServeFingerprint(req ServeRequest) (string, error) { return serve.Fingerprint(req) }
