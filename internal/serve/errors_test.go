package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"igosim/internal/config"
	"igosim/internal/runner"
)

// errorBody decodes the structured error envelope.
func errorBody(t *testing.T, body []byte) Error {
	t.Helper()
	var env struct {
		Error Error `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the structured envelope: %v\n%s", err, body)
	}
	if env.Error.Code == "" {
		t.Fatalf("error body has no code: %s", body)
	}
	return env.Error
}

// TestErrorPaths drives every documented failure through the live handler
// and checks both the HTTP status and the structured error code.
func TestErrorPaths(t *testing.T) {
	badCfg := config.SmallNPU()
	badCfg.SPMBytes = -1

	cases := []struct {
		name     string
		path     string
		raw      string // raw body when set; otherwise req is marshaled
		req      any
		status   int
		code     string
		inErrMsg string
	}{
		{
			name:   "malformed json",
			path:   "/simulate",
			raw:    `{"workload": "ncf",`,
			status: http.StatusBadRequest,
			code:   CodeBadJSON,
		},
		{
			name:   "trailing garbage",
			path:   "/simulate",
			raw:    `{"workload": "ncf"} extra`,
			status: http.StatusBadRequest,
			code:   CodeBadJSON,
		},
		{
			name:   "unknown field",
			path:   "/simulate",
			raw:    `{"workload": "ncf", "wrokload": "oops"}`,
			status: http.StatusBadRequest,
			code:   CodeBadJSON,
		},
		{
			name:   "missing workload",
			path:   "/simulate",
			req:    Request{},
			status: http.StatusBadRequest,
			code:   CodeBadRequest,
		},
		{
			name:     "unknown workload",
			path:     "/simulate",
			req:      Request{Workload: "alexnet"},
			status:   http.StatusNotFound,
			code:     CodeUnknownModel,
			inErrMsg: "alexnet",
		},
		{
			name:   "unknown policy",
			path:   "/simulate",
			req:    Request{Workload: "ncf", Policy: "yolo"},
			status: http.StatusBadRequest,
			code:   CodeBadRequest,
		},
		{
			name:   "unknown preset",
			path:   "/simulate",
			req:    Request{Workload: "ncf", NPU: "huge"},
			status: http.StatusBadRequest,
			code:   CodeBadRequest,
		},
		{
			name:   "config and npu together",
			path:   "/simulate",
			req:    Request{Workload: "ncf", NPU: "small", Config: &badCfg},
			status: http.StatusBadRequest,
			code:   CodeBadRequest,
		},
		{
			name:     "config failing Validate",
			path:     "/simulate",
			req:      Request{Workload: "ncf", Config: &badCfg},
			status:   http.StatusUnprocessableEntity,
			code:     CodeInvalidConfig,
			inErrMsg: "SPM",
		},
		{
			name: "report on multi-core config",
			path: "/simulate",
			req: Request{Workload: "ncf", NPU: "large", Cores: 4,
				Options: RequestOptions{Report: true}},
			status:   http.StatusUnprocessableEntity,
			code:     CodeInvalidConfig,
			inErrMsg: "single-core",
		},
		{
			name:   "oversized batch",
			path:   "/batch",
			req:    make([]Request, 5),
			status: http.StatusRequestEntityTooLarge,
			code:   CodeBatchTooLarge,
		},
	}

	_, ts := newTestServer(t, Options{MaxBatch: 4})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body []byte
			if tc.raw != "" {
				resp, err := ts.Client().Post(ts.URL+tc.path, "application/json",
					strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				status = resp.StatusCode
				buf := new(bytes.Buffer)
				buf.ReadFrom(resp.Body)
				body = buf.Bytes()
			} else {
				status, body, _ = post(t, ts.Client(), ts.URL+tc.path, tc.req)
			}
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, body)
			}
			e := errorBody(t, body)
			if e.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", e.Code, tc.code, e.Message)
			}
			if tc.inErrMsg != "" && !strings.Contains(e.Message, tc.inErrMsg) {
				t.Errorf("message %q does not mention %q", e.Message, tc.inErrMsg)
			}
		})
	}
}

// TestMethodNotAllowed checks the simulation endpoints refuse GET.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/simulate", "/batch"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestClientDisconnectMidRequest proves a client hanging up mid-simulation
// neither kills the server nor wastes the work: the detached computation
// finishes and populates the cache, so the retry hits. The test holds
// every admission slot, so the leader's computation stays in flight until
// the client has hung up; each step then waits on an event, never a
// timer: the leader's call appearing in the in-flight table, the client's
// request ending, and the call's done channel.
func TestClientDisconnectMidRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates one model point")
	}
	s, ts := newTestServer(t, Options{})
	req := Request{Workload: "dlrm", Suite: "edge", NPU: "small", Batch: 2}

	held := s.limiter.Cap()
	for i := 0; i < held; i++ {
		if err := s.limiter.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for ; held > 0; held-- {
			s.limiter.Release()
		}
	}()

	payload, _ := json.Marshal(req)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/simulate", bytes.NewReader(payload))
	hreq.Header.Set("Content-Type", "application/json")
	ended := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(hreq)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("answered %d", resp.StatusCode)
		}
		ended <- err
	}()

	cl := awaitInflight(t, s.cache, ended)
	cancel()
	if err := <-ended; !errors.Is(err, context.Canceled) {
		t.Fatalf("client request ended with %v, want context.Canceled", err)
	}
	for ; held > 0; held-- {
		s.limiter.Release()
	}
	<-cl.done
	if cl.err != nil {
		t.Fatalf("detached computation failed: %v", cl.err)
	}

	status, body, cacheStatus := post(t, ts.Client(), ts.URL+"/simulate", req)
	if status != http.StatusOK {
		t.Fatalf("retry after disconnect: status %d: %s", status, body)
	}
	if cacheStatus != StatusHit {
		t.Errorf("retry was %q, want %q: the abandoned computation's result should be cached", cacheStatus, StatusHit)
	}

	// And the server is still healthy.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after disconnect: %d", resp.StatusCode)
	}
}

// awaitInflight returns the one call registered in c's in-flight table,
// yielding the processor until it appears; it fails the test if the
// request ends first.
func awaitInflight(t *testing.T, c *resultCache, ended <-chan error) *call {
	t.Helper()
	for {
		c.mu.Lock()
		var found *call
		for _, cl := range c.inflight {
			found = cl
		}
		c.mu.Unlock()
		if found != nil {
			return found
		}
		select {
		case err := <-ended:
			t.Fatalf("request ended before its computation was in flight: %v", err)
		default:
			runtime.Gosched()
		}
	}
}

// TestDrainingRefusesNewWork checks the graceful-shutdown handshake:
// draining flips /healthz to 503 and refuses new simulations with the
// shutting_down code.
func TestDrainingRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.StartDraining()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining: %d, want 503", resp.StatusCode)
	}

	status, body, _ := post(t, ts.Client(), ts.URL+"/simulate",
		Request{Workload: "ncf", Suite: "edge", NPU: "small"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("simulate while draining: status %d: %s", status, body)
	}
	if e := errorBody(t, body); e.Code != CodeShuttingDown {
		t.Errorf("code %q, want %q", e.Code, CodeShuttingDown)
	}
}

// TestSPMTooSmallForTiles sends a configuration whose scratchpad cannot
// hold the model's tiles, alone and inside a /batch whose members run on
// runner workers, where an engine panic is beyond net/http's recovery and
// would kill the server. Both must come back as invalid_config naming the
// tile and the capacity, and the server must go on answering valid
// requests.
func TestSPMTooSmallForTiles(t *testing.T) {
	prev := runner.SetParallelism(2)
	defer runner.SetParallelism(prev)
	_, ts := newTestServer(t, Options{})
	small := config.SmallNPU()
	small.SPMBytes = 4096
	bad := Request{Workload: "ncf", Suite: "edge", Config: &small}
	good := Request{Workload: "ncf", Suite: "edge", NPU: "small"}

	checkErr := func(e Error) {
		t.Helper()
		if e.Code != CodeInvalidConfig {
			t.Errorf("code %q, want %q (%s)", e.Code, CodeInvalidConfig, e.Message)
		}
		for _, want := range []string{"tile of", "capacity of 2048 bytes"} {
			if !strings.Contains(e.Message, want) {
				t.Errorf("message %q does not mention %q", e.Message, want)
			}
		}
	}
	status, body, _ := post(t, ts.Client(), ts.URL+"/simulate", bad)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("too-small SPM: status %d, want %d: %s", status, http.StatusUnprocessableEntity, body)
	}
	checkErr(errorBody(t, body))

	status, body, _ = post(t, ts.Client(), ts.URL+"/batch", []Request{bad, good})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 || br.Results[0].Error == nil || br.Results[1].Result == nil {
		t.Fatalf("batch results %s, want an error then a result", body)
	}
	checkErr(*br.Results[0].Error)

	if status, body, _ := post(t, ts.Client(), ts.URL+"/simulate", good); status != http.StatusOK {
		t.Fatalf("valid request after the rejected one: status %d: %s", status, body)
	}
}
