package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"igosim/internal/core"
	"igosim/internal/dse"
	"igosim/internal/experiments"
	"igosim/internal/serve"
	"igosim/internal/sim"
	"igosim/internal/stats"
)

// The slow recording and cross-checking tests run only on request:
//
//	PERFBENCH_RECORD=1     go test -run TestRecordServeTable   (rewrites the serve table)
//	PERFBENCH_CROSSCHECK=1 go test -run CrossCheck -timeout 60m
func requireEnv(t *testing.T, name string) {
	if os.Getenv(name) != "1" {
		t.Skipf("set %s=1 to run", name)
	}
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	a, b := genStream(7, 3, streamLen), genStream(7, 3, streamLen)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed and repetition gave two streams")
	}
	if reflect.DeepEqual(a, genStream(8, 3, streamLen)) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	if reflect.DeepEqual(a, genStream(7, 4, streamLen)) {
		t.Fatal("repetitions 3 and 4 gave the same stream")
	}
	for _, idx := range a {
		if idx < 0 || idx >= populationSize {
			t.Fatalf("index %d outside the population", idx)
		}
	}
}

func TestPopulationDistinct(t *testing.T) {
	seen := make(map[string]int)
	for i := 0; i < populationSize; i++ {
		fp, err := serve.Fingerprint(populationRequest(i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if j, ok := seen[fp]; ok {
			t.Fatalf("requests %d and %d share a fingerprint", j, i)
		}
		seen[fp] = i
	}
}

// corrupt flips one byte of s.
func corrupt(s string, at int) string {
	b := []byte(s)
	b[at] ^= 1
	return string(b)
}

func TestFigureCheckCatchesOneByte(t *testing.T) {
	data, err := os.ReadFile("../results/figures_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range figureIDs {
		want, err := reportSection(string(data), id)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(want, "== "+id+": ") || !strings.HasSuffix(want, "\n\n") {
			t.Fatalf("%s section is not a whole report: %q", id, want)
		}
		rep := experiments.Report{ID: id, Title: "t", Table: stats.NewTable("a"), Summary: []string{"s"}}
		text := rep.String() + "\n"
		if !figureMatches(rep, text) {
			t.Fatal("a report does not match its own text")
		}
		if figureMatches(rep, corrupt(text, len(text)/2)) {
			t.Fatal("one corrupted byte passed the figure check")
		}
	}
}

func TestSweepDigestCatchesOneCycle(t *testing.T) {
	res := dse.Result{
		Rows: []dse.Row{
			{Index: 0, Status: dse.StatusSimulated, BaseCycles: 100, IgoCycles: 90, PrunedBy: -1},
			{Index: 1, Status: dse.StatusPruned, PrunedBy: 0},
		},
		Frontier: []int{0},
	}
	want := sweepOutputDigest(res)
	res.Rows[0].IgoCycles++
	if sweepOutputDigest(res) == want {
		t.Fatal("one changed cycle left the sweep digest unchanged")
	}
	res.Rows[0].IgoCycles--
	res.Frontier = []int{1}
	if sweepOutputDigest(res) == want {
		t.Fatal("a changed frontier left the sweep digest unchanged")
	}
}

func TestServeCheckCatchesOneByte(t *testing.T) {
	body := []byte(`{"schema":"igosim.serve/1","total_cycles":12345}` + "\n")
	want := bodyDigest(body)
	if !replyOK(reply{status: 200, body: body}, want) {
		t.Fatal("a body does not match its own digest")
	}
	bad := []byte(corrupt(string(body), 40))
	if replyOK(reply{status: 200, body: bad}, want) {
		t.Fatal("one corrupted byte passed the serve check")
	}
	if replyOK(reply{status: 500, body: body}, want) {
		t.Fatal("a non-200 reply passed the serve check")
	}
}

// fakeBench stands in for a workload so the printed metric names can be
// checked without running one.
type fakeBench struct{}

func (fakeBench) rep(*tracer, int) (repStats, error) {
	return repStats{wall: 0.01, ops: 4, latMs: []float64{1, 2, 3, 4}}, nil
}
func (fakeBench) cells() []cell { return nil }

func TestPrintedNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, []string{"figures", "sweep", "serve"}) {
		t.Errorf("BENCHMARK.json workloads %v", workloads)
	}
	for _, tc := range []struct {
		trace bool
		want  []entry
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, err := measure(options{workload: "fake", seconds: 0, trace: tc.trace, width: 1}, fakeBench{}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		var got []entry
		for name, m := range res.Metrics {
			got = append(got, entry{name, m.Unit})
		}
		want := append([]entry(nil), tc.want...)
		for _, s := range [][]entry{got, want} {
			sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v prints\n%v\nBENCHMARK.json lists\n%v", tc.trace, got, want)
		}
	}
}

// TestRecordServeTable evaluates every population request once and
// writes the body digest table the serve check compares against.
func TestRecordServeTable(t *testing.T) {
	requireEnv(t, "PERFBENCH_RECORD")
	digests := populationDigests(t, false)
	if err := os.WriteFile(serveTablePath, []byte(strings.Join(digests, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServeTableCrossCheck re-evaluates the population in reverse order
// with the result cache off and compares with the recorded table.
func TestServeTableCrossCheck(t *testing.T) {
	requireEnv(t, "PERFBENCH_CROSSCHECK")
	want, err := loadServeTable(serveTablePath)
	if err != nil {
		t.Fatal(err)
	}
	got := populationDigests(t, true)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: body digest %s, recorded %s", i, got[i], want[i])
		}
	}
}

func populationDigests(t *testing.T, reverse bool) []string {
	core.ResetCaches()
	order := make([]int, populationSize)
	for i := range order {
		order[i] = i
		if reverse {
			order[i] = populationSize - 1 - i
		}
	}
	payloads := make([][]byte, len(order))
	for k, i := range order {
		p, err := json.Marshal(populationRequest(i))
		if err != nil {
			t.Fatal(err)
		}
		payloads[k] = p
	}
	replies, _, err := post(serve.New(serve.Options{CacheCap: -1}), payloads, 2, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, populationSize)
	for k, r := range replies {
		if r.status != 200 {
			t.Fatalf("request %d: status %d: %s", order[k], r.status, r.body)
		}
		out[order[k]] = bodyDigest(r.body)
	}
	return out
}

// TestSweepDigestCrossCheck holds the recorded sweep digest against an
// unpruned sweep with the residency cache disabled: every simulated row of
// the pruned sweep must equal the engine-only row at its index, and the
// frontier must be the Pareto set of those rows.
func TestSweepDigestCrossCheck(t *testing.T) {
	requireEnv(t, "PERFBENCH_CROSSCHECK")
	core.ResetCaches()
	pruned, err := dse.Run(sweepGrid(), sweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepOutputDigest(pruned); got != sweepDigest {
		t.Fatalf("pruned sweep digest %s, recorded %s", got, sweepDigest)
	}
	core.ResetCaches()
	prev := sim.SetResidencyCacheCap(0)
	defer sim.SetResidencyCacheCap(prev)
	full, err := dse.Run(sweepGrid(), dse.Options{Prune: false})
	if err != nil {
		t.Fatal(err)
	}
	if full.Simulated != len(full.Rows) {
		t.Fatalf("unpruned sweep simulated %d of %d points", full.Simulated, len(full.Rows))
	}
	masked := make([]dse.Row, len(full.Rows))
	for i, r := range pruned.Rows {
		masked[i] = full.Rows[i]
		if r.Status != dse.StatusSimulated {
			masked[i].Status = dse.StatusPruned
			continue
		}
		a, _ := json.Marshal(r)
		b, _ := json.Marshal(full.Rows[i])
		if string(a) != string(b) {
			t.Fatalf("point %d: pruned row %s, engine-only row %s", i, a, b)
		}
	}
	if f := dse.Pareto(masked); !reflect.DeepEqual(f, pruned.Frontier) {
		t.Fatalf("frontier %v, Pareto set of the engine-only rows %v", pruned.Frontier, f)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "a", start: 30, end: 50, parent: 0}, // overlaps its sibling
		{name: "b", start: 70, end: 80, parent: 0},
	}}
	st := tr.stats()
	for name, want := range map[string]spanStat{
		"root": {calls: 1, self: 50},
		"a":    {calls: 2, self: 50},
		"b":    {calls: 1, self: 10},
	} {
		if st[name] != want {
			t.Errorf("%s: %+v, want %+v", name, st[name], want)
		}
	}
}
