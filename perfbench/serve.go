package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/proptest"
	"igosim/internal/serve"
	"igosim/internal/workload"
)

// The serve workload's request population: the small models over both
// zoos and all four policies on the small NPU, with inline bandwidth, SPM
// and batch overrides, with and without the baseline comparison, and with
// the energy breakdown. Requests that
// differ only in bandwidth or options miss the result cache but share
// layer shapes and residency traces.
var (
	serveModels   = []string{"ncf", "dlrm", "mob"}
	serveSuites   = []string{"edge", "server"}
	servePolicies = []string{"baseline", "interleave", "rearrange", "partition"}
	serveBWGBs    = []float64{8, 10, 11, 13, 16, 19, 22, 27, 32, 38, 45, 54, 64, 76, 90, 108}
	serveSPMMiB   = []int64{1, 2}
	serveBatches  = []int{2, 4}
)

// populationSize is the number of distinct requests in the population
// (the trailing factor is the baseline option).
var populationSize = len(serveModels) * len(serveSuites) * len(servePolicies) *
	len(serveBWGBs) * len(serveSPMMiB) * len(serveBatches) * 2

// streamLen is the number of requests per repetition: enough that at
// least ten lie beyond the 99th percentile. Drawn uniformly from the
// population with replacement, a stream of this length repeats an earlier
// request with probability 1 − (1 − e^−x)/x for x = streamLen ÷
// populationSize, about 0.21 — well away from one half, so the median
// latency sits inside the miss mode.
const streamLen = 1500

// serveTablePath holds the first 16 hex digits of the SHA-256 of every
// population request's response body, one per line in population order.
const serveTablePath = "testdata/serve_bodies.txt"

// populationRequest decodes population index i (mixed radix, options
// fastest).
func populationRequest(i int) serve.Request {
	pick := func(n int) int {
		v := i % n
		i /= n
		return v
	}
	req := serve.Request{NPU: "small"}
	req.Options.Energy = true
	req.Options.Baseline = pick(2) == 1
	req.Batch = serveBatches[pick(len(serveBatches))]
	req.SPMMiB = serveSPMMiB[pick(len(serveSPMMiB))]
	req.BandwidthGBs = serveBWGBs[pick(len(serveBWGBs))]
	req.Policy = servePolicies[pick(len(servePolicies))]
	req.Suite = serveSuites[pick(len(serveSuites))]
	req.Workload = serveModels[pick(len(serveModels))]
	return req
}

// genStream draws the request stream of one repetition as population
// indices. Repetition k of a run uses its own stream, derived from the
// seed, so a run's latency sample spans many streams: the tail is made of
// each stream's first requests for a layer shape, and which requests those
// are varies from stream to stream.
func genStream(seed uint64, k, n int) []int {
	src := proptest.NewSource(seed ^ uint64(k)*0x9e3779b97f4a7c15)
	out := make([]int, n)
	for i := range out {
		out[i] = src.IntRange(0, populationSize-1)
	}
	return out
}

// serveBench drives an in-process igoserved with a closed loop of one
// client per CPU. The server only sees the generated requests.
type serveBench struct {
	seed    uint64
	stream  []int    // the latest repetition's stream
	want    []string // recorded body digest prefix by population index
	clients int
}

func setupServe(o options) (bench, error) {
	want, err := loadServeTable(filepath.Join("perfbench", serveTablePath))
	if err != nil {
		return nil, err
	}
	b := &serveBench{seed: o.seed, want: want, clients: o.width}
	_, err = b.payloads(0)
	return b, err
}

// payloads generates repetition k's stream and its request bodies.
func (b *serveBench) payloads(k int) ([][]byte, error) {
	b.stream = genStream(b.seed, k, streamLen)
	out := make([][]byte, len(b.stream))
	for i, idx := range b.stream {
		p, err := json.Marshal(populationRequest(idx))
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// loadServeTable reads the recorded body digests.
func loadServeTable(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != populationSize {
		return nil, fmt.Errorf("%s: %d digests, want %d", path, len(out), populationSize)
	}
	return out, nil
}

// bodyDigest is the recorded form of a response body.
func bodyDigest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

// replyOK reports whether r is a 200 whose body has the recorded digest.
func replyOK(r reply, want string) bool {
	return r.status == http.StatusOK && bodyDigest(r.body) == want
}

// reply is one response as a client saw it.
type reply struct {
	status int
	cache  string // X-Igosim-Cache
	body   []byte
	ms     float64
}

// post sends payloads to s from n concurrent closed-loop clients and
// returns the replies in request order and the host seconds the stream
// took. tr, when set, gets one span per request under parent.
//
//lint:walldomain client-observed latency is the measurement itself
func post(s *serve.Server, payloads [][]byte, n int, tr *tracer, parent int) ([]reply, float64, error) {
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	out := make([]reply, len(payloads))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, n)
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(payloads) {
					return
				}
				sp := tr.beginUnder("serve.request", parent)
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/simulate", "application/json", bytes.NewReader(payloads[i]))
				if err != nil {
					errs[w] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = reply{resp.StatusCode, resp.Header.Get("X-Igosim-Cache"), body,
					float64(time.Since(t0).Nanoseconds()) / 1e6}
				tr.endAt(sp)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return out, wall, nil
}

func (b *serveBench) rep(tr *tracer, k int) (repStats, error) {
	payloads, err := b.payloads(k)
	if err != nil {
		return repStats{}, err
	}
	s := serve.New(serve.Options{})
	sp := tr.begin("serve.stream")
	replies, wall, err := post(s, payloads, b.clients, tr, sp)
	tr.end(sp)
	if err != nil {
		return repStats{}, err
	}
	st := repStats{wall: wall, ops: len(replies)}
	for i, r := range replies {
		st.latMs = append(st.latMs, r.ms)
		if !replyOK(r, b.want[b.stream[i]]) {
			st.failed++
		}
	}
	if tr != nil {
		st.layer = b.layerCounters(s, replies)
	}
	return st, nil
}

// layerCounters reports the serving layer's counters for a traced
// repetition: result-cache hit rate and coalesced requests from the
// server, the stream's measured repeat share, and latency split by the
// cache-status header (coalesced requests wait for a computation, so
// they count with the misses).
func (b *serveBench) layerCounters(s *serve.Server, replies []reply) map[string]float64 {
	cs := s.CacheStats()
	var hit, miss []float64
	for _, r := range replies {
		if r.cache == serve.StatusHit {
			hit = append(hit, r.ms)
		} else {
			miss = append(miss, r.ms)
		}
	}
	seen := make(map[int]bool)
	repeats := 0
	for _, idx := range b.stream {
		if seen[idx] {
			repeats++
		}
		seen[idx] = true
	}
	return map[string]float64{
		"serve.result_hit_rate": cs.HitRate(),
		"serve.coalesced":       float64(cs.Coalesced),
		"serve.repeat_share":    float64(repeats) / float64(len(b.stream)),
		"serve.latency_samples": float64(len(replies)),
		"serve.hit_p50_ms":      quantile(hit, 0.50),
		"serve.miss_p50_ms":     quantile(miss, 0.50),
		"serve.miss_p99_ms":     quantile(miss, 0.99),
	}
}

// cells lists the latest stream's distinct (configuration, model) inputs with
// the policies requested on each, the baseline included where a request
// asks for the comparison.
func (b *serveBench) cells() []cell {
	type key struct {
		suite, model string
		bw           float64
		spm          int64
		batch        int
	}
	pols := make(map[key]map[core.Policy]bool)
	var order []key
	for _, idx := range b.stream {
		req := populationRequest(idx)
		k := key{req.Suite, req.Workload, req.BandwidthGBs, req.SPMMiB, req.Batch}
		if pols[k] == nil {
			pols[k] = make(map[core.Policy]bool)
			order = append(order, k)
		}
		pols[k][policyOf(req.Policy)] = true
		if req.Options.Baseline {
			pols[k][core.PolBaseline] = true
		}
	}
	var out []cell
	for _, k := range order {
		suite, err := workload.SuiteFor(k.suite)
		if err != nil {
			panic(err)
		}
		m, err := workload.ByAbbr(suite, k.model)
		if err != nil {
			panic(err)
		}
		cfg := config.SmallNPU().WithBandwidth(k.bw * 1e9).WithBatch(k.batch)
		cfg.SPMBytes = k.spm << 20
		var ps []core.Policy
		for p := range pols[k] {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		out = append(out, cell{cfg: cfg, plans: core.PlanModel(cfg, m), pols: ps})
	}
	return out
}

func policyOf(name string) core.Policy {
	for i, n := range servePolicies {
		if n == name {
			return core.Policies()[i]
		}
	}
	panic("perfbench: unknown policy " + name)
}
