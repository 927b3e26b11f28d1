package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// update rewrites ../BENCHMARK.json from spec.go:
//
//	go -C bench test -run TestBenchmarkJSONMatchesSpec -update
var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// benchmarkDoc is BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []boundedDoc  `json:"end_to_end"`
	PerLayer   []metricDoc   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedDoc struct {
	metricDoc
	Bound float64 `json:"bound"`
}

// specDoc renders spec.go as the document the driver reads.
func specDoc() benchmarkDoc {
	doc := benchmarkDoc{
		Command:    []string{"go", "-C", "bench", "run", "."},
		Paths:      []string{"bench"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedDoc{metricDoc{m.Name, m.Unit, m.Better}, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricDoc{m.Name, m.Unit, m.Better})
	}
	return doc
}

// smokeConfig runs a workload at 1/50 of its nominal size in one round.
func smokeConfig(workload string, seed uint64) RunConfig {
	return RunConfig{Workload: workload, Seed: seed, Seconds: nominalSeconds, Scale: 0.02, Setups: 1}
}

// TestUntaggedFilesImportOnlySonet keeps the timed run off the
// repository's internals: a file without the sonet_layers build tag may
// import package sonet and nothing beneath it, so internals can be renamed
// or deleted without breaking the benchmark's end-to-end half.
func TestUntaggedFilesImportOnlySonet(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		tagged := false
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !constraint.IsGoBuild(c.Text) {
					continue
				}
				expr, err := constraint.Parse(c.Text)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Tagged means: not built unless sonet_layers is set.
				tagged = !expr.Eval(func(string) bool { return false }) &&
					expr.Eval(func(tag string) bool { return tag == "sonet_layers" })
			}
		}
		if tagged {
			continue
		}
		checked++
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "sonet/") {
				t.Errorf("%s imports %s; only files tagged sonet_layers may reach below package sonet", name, path)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("only %d untagged files found; is the test running in bench/?", checked)
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json, which the driver
// reads, in step with spec.go, which the command runs.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := specDoc()
	if *update {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and spec.go disagree (rerun with -update):\n got %+v\nwant %+v", got, want)
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(want.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

// TestSmoke runs every workload at 1/50 scale and checks the shape of the
// result: every end-to-end metric by name with its unit, a non-zero
// attempt count, no failed operation. Nothing here asserts a timing.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res, err := wl.run(smokeConfig(wl.Name, 3))
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
				t.Errorf("attempted %d, failed %d, correct %v; notes:\n%s", res.Attempted, res.Failed, res.Correct, strings.Join(res.notes, "\n"))
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("metric %s missing", m.Name)
				} else if v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("metric %s = %v %q, want a positive value in %q", m.Name, v.Value, v.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := keys[k]; !ok {
					t.Errorf("result line lacks %q: %s", k, line)
				}
			}
			if len(keys) != 4 {
				t.Errorf("result line has %d keys, want exactly 4: %s", len(keys), line)
			}
		})
	}
}

// TestEmulatedWorkloadsRepeat checks that a virtual-time workload is a
// function of its seed: the same seed gives bit-identical message counts
// and virtual-time latencies, another seed gives different ones.
func TestEmulatedWorkloadsRepeat(t *testing.T) {
	for _, name := range []string{"emu-mixed-loss", "emu-churn-64"} {
		t.Run(name, func(t *testing.T) {
			wl := findWorkload(name)
			run := func(seed uint64) *Result {
				res, err := wl.run(smokeConfig(name, seed))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b, c := run(7), run(7), run(8)
			if !reflect.DeepEqual(a.counts, b.counts) {
				t.Errorf("seed 7 twice: counts %v then %v", a.counts, b.counts)
			}
			if a.Metrics["on_time_share"] != b.Metrics["on_time_share"] {
				t.Errorf("seed 7 twice: on_time_share %v then %v", a.Metrics["on_time_share"].Value, b.Metrics["on_time_share"].Value)
			}
			for _, m := range []string{"oneway_p50_us", "oneway_p90_us"} {
				if a.diag[m] != b.diag[m] {
					t.Errorf("seed 7 twice: %s %v then %v", m, a.diag[m], b.diag[m])
				}
			}
			if reflect.DeepEqual(a.counts, c.counts) && a.diag["oneway_p50_us"] == c.diag["oneway_p50_us"] {
				t.Errorf("seeds 7 and 8 gave the same counts %v and median latency", a.counts)
			}
		})
	}
}

// TestLatencyIsMedianOfWindows pins the latency estimator: each window's
// own p50 and p90, then the median over the windows, so that a stalled
// minority of windows moves neither and a shift of every window moves both.
func TestLatencyIsMedianOfWindows(t *testing.T) {
	window := func(base float64) []float64 {
		w := make([]float64, 11)
		for i := range w {
			w[i] = base + float64(i)
		}
		return w
	}
	var m meter
	for i := 0; i < 3; i++ {
		m.window(window(100))
	}
	m.window(window(90000)) // one window spoiled by a stall
	if p50, p90 := m.latency(); p50 != 105 || p90 != 109 {
		t.Errorf("with one stalled window of four: p50 %v, p90 %v, want 105 and 109", p50, p90)
	}
	var shifted meter
	for i := 0; i < 4; i++ {
		shifted.window(window(150))
	}
	if p50, p90 := shifted.latency(); p50 != 155 || p90 != 159 {
		t.Errorf("with every window 50 us later: p50 %v, p90 %v, want 155 and 159", p50, p90)
	}
}

// TestThroughputIsTheQuietEnvelope pins the two throughput estimators: the
// chain's quietShare quantile over equal segments, and the emulator's
// fastest replay of each slice, whatever the slice holds.
func TestThroughputIsTheQuietEnvelope(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	var chain meter
	for round := 0; round < 2; round++ {
		var r []segment
		for i := 0; i < 50; i++ {
			// Ten messages a segment at 10 us each, all but the first five
			// of every round slowed by a neighbour.
			wall := us(100)
			if i >= 5 {
				wall = us(130)
			}
			r = append(r, segment{wall: wall, cpu: 2 * wall, n: 10})
		}
		chain.rounds = append(chain.rounds, r)
	}
	if wallUs, busy := chain.throughput(); wallUs != 10 || busy != 2 {
		t.Errorf("chain: %v us per message on %v cores, want 10 and 2", wallUs, busy)
	}

	// Two replays of three slices; the middle one holds a node restart.
	// Each replay is slowed in another slice.
	emu := meter{replayed: true, rounds: [][]segment{
		{{us(100), us(100), 10}, {us(2600), us(2600), 10}, {us(100), us(100), 10}},
		{{us(130), us(130), 10}, {us(2000), us(2000), 10}, {us(100), us(100), 10}},
	}}
	if wallUs, busy := emu.throughput(); wallUs != 2200.0/30 || busy != 1 {
		t.Errorf("emulator: %v us per message on %v cores, want %v and 1", wallUs, busy, 2200.0/30)
	}
	if !emu.replaysAgree() {
		t.Error("identical replays reported as disagreeing")
	}
	emu.rounds[1][2].n = 9
	if emu.replaysAgree() {
		t.Error("a replay that delivered another count went unnoticed")
	}
}

// TestQuartilesMatchPython checks the spread tables against
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
