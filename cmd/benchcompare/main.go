// Command benchcompare diffs `go test -bench` output against a checked-in
// baseline, failing on performance regressions. It is the `make
// bench-compare` backend.
//
// Usage:
//
//	go test -run xxx -bench ... -benchmem . | benchcompare -baseline BENCH_baseline.json
//	go test -run xxx -bench ... -benchmem . | benchcompare -write BENCH_baseline.json
//
// Comparison rules:
//   - ns/op may drift up to the baseline's tolerance factor (wall time is
//     noisy across machines); a larger slowdown fails.
//   - allocs/op is exact: any increase over baseline fails. The alloc
//     budgets are the repository's real regression guards — they do not
//     depend on machine speed.
//   - Benchmarks present in the baseline but missing from the input are
//     reported and fail the run (a silently dropped benchmark is a lost
//     guard); new benchmarks absent from the baseline are reported only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Baseline is the checked-in benchmark reference.
type Baseline struct {
	// Tolerance is the allowed fractional ns/op slowdown (0.5 = +50%).
	Tolerance float64 `json:"tolerance"`
	// Note records how the baseline was produced.
	Note string `json:"note,omitempty"`
	// Benchmarks maps benchmark name to its reference numbers.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark's reference numbers.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	os.Exit(run())
}

func run() int {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline JSON to compare against")
	writePath := flag.String("write", "", "write a new baseline JSON from the input instead of comparing")
	tolerance := flag.Float64("tolerance", 0, "override the baseline's ns/op tolerance (0 = use baseline's)")
	flag.Parse()

	current, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		return 2
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchcompare: no benchmark lines on stdin")
		return 2
	}

	if *writePath != "" {
		b := Baseline{
			Tolerance:  0.5,
			Note:       "regenerate with: make bench | go run ./cmd/benchcompare -write BENCH_baseline.json",
			Benchmarks: current,
		}
		data, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*writePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
			return 2
		}
		fmt.Printf("benchcompare: wrote %d benchmarks to %s\n", len(current), *writePath)
		return 0
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %s: %v\n", *baselinePath, err)
		return 2
	}
	tol := base.Tolerance
	if *tolerance > 0 {
		tol = *tolerance
	}
	if tol <= 0 {
		tol = 0.5
	}

	failures := 0
	names := sortedKeys(base.Benchmarks)
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := current[name]
		if !ok {
			fmt.Printf("MISSING  %s (in baseline, not in input)\n", name)
			failures++
			continue
		}
		status := "ok"
		if want.NsPerOp > 0 && got.NsPerOp > want.NsPerOp*(1+tol) {
			status = fmt.Sprintf("FAIL ns/op %+.0f%% (limit %+.0f%%)",
				100*(got.NsPerOp/want.NsPerOp-1), 100*tol)
			failures++
		}
		if got.AllocsPerOp > want.AllocsPerOp {
			status = fmt.Sprintf("FAIL allocs/op %.0f > %.0f", got.AllocsPerOp, want.AllocsPerOp)
			failures++
		}
		fmt.Printf("%-8s %s: %.1f ns/op (base %.1f), %.0f allocs/op (base %.0f)\n",
			status, name, got.NsPerOp, want.NsPerOp, got.AllocsPerOp, want.AllocsPerOp)
	}
	for _, name := range sortedKeys(current) {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("NEW      %s: %.1f ns/op, %.0f allocs/op (not in baseline)\n",
				name, current[name].NsPerOp, current[name].AllocsPerOp)
		}
	}
	if failures > 0 {
		fmt.Printf("benchcompare: %d regression(s) vs %s (ns/op tolerance %.0f%%)\n", failures, *baselinePath, 100*tol)
		return 1
	}
	fmt.Printf("benchcompare: %d benchmarks within budget of %s\n", len(names), *baselinePath)
	return 0
}

// parseBench extracts benchmark results from `go test -bench` output.
// A benchmark line is: name, iteration count, then value/unit pairs,
// e.g. `BenchmarkSPF/dense-16  3347569  387.6 ns/op  0 B/op  0 allocs/op`.
//
// With GOMAXPROCS above one the testing package appends "-<GOMAXPROCS>"
// to every name; it is trimmed, so one baseline serves boxes of any core
// count (this command runs on the box that ran the benchmarks, at the
// other end of the pipe).
func parseBench(f *os.File) (map[string]Entry, error) {
	out := make(map[string]Entry)
	procs := ""
	if n := runtime.GOMAXPROCS(0); n > 1 {
		procs = "-" + strconv.Itoa(n)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // echo so the pipeline still shows the raw run
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		e := Entry{}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = val
				seen = true
			case "allocs/op":
				e.AllocsPerOp = val
				seen = true
			}
		}
		if seen {
			out[strings.TrimSuffix(fields[0], procs)] = e
		}
	}
	return out, sc.Err()
}

func sortedKeys(m map[string]Entry) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
