// Command bench is the repository benchmark: it runs one named workload
// from a seed, checks every delivered message, and prints every metric by
// name with its unit; the last line of standard output is one JSON object.
//
//	go -C bench run . --workload chain3-video-be --seed 1 --seconds 28 --trace 0
//
// The files without a build tag import only package sonet. With
// --trace 1 the command rebuilds itself with -tags sonet_layers, which
// adds the per-layer ladder, the traced relay and the counter readers
// that reach into sonet/internal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

const (
	// nominalSeconds is the run length the workload counts were sized for
	// (BENCHMARK.json's run_seconds).
	nominalSeconds = 28
	// runRounds is how many rounds a run makes: each builds and warms a
	// fresh world (one setup_s sample) and runs its share of the timed work.
	runRounds = 5
)

func main() {
	var (
		cfg    = RunConfig{Setups: runRounds, Scale: 1}
		trace  int
		repeat int
		aa     int
	)
	flag.StringVar(&cfg.Workload, "workload", "", "workload name (see README.md)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.Seconds, "seconds", nominalSeconds, "nominal length of the timed phases")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics (needs -tags sonet_layers)")
	flag.IntVar(&repeat, "repeat", 0, "run N times on seeds seed..seed+N-1 and print each metric's spread")
	flag.IntVar(&aa, "aa", 0, "interleave two sets of N runs and exit 1 if any pair of medians differs by more than its bound")
	flag.Parse()

	wl := findWorkload(cfg.Workload)
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		fatalf("unknown workload %q; have %s", cfg.Workload, strings.Join(names, ", "))
	}
	if cfg.Seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	fmt.Println(machineRecord())
	switch {
	case aa > 0:
		os.Exit(runAA(wl, cfg, aa))
	case repeat > 0:
		os.Exit(runRepeat(wl, cfg, repeat))
	}
	var res *Result
	var err error
	if trace != 0 {
		res, err = runTraced(wl, cfg)
	} else {
		res, err = wl.run(cfg)
	}
	if err != nil {
		fatalf("%s: %v", cfg.Workload, err)
	}
	if res != nil { // nil: a child process ran the traced run and printed it
		res.print(os.Stdout)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func newResult() *Result {
	return &Result{Metrics: make(map[string]Value), diag: make(map[string]float64)}
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, e := range endToEnd {
		m[e.Name] = e.Unit
	}
	for _, p := range perLayer {
		m[p.Name] = p.Unit
	}
	return m
}()

func (r *Result) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	r.Metrics[name] = Value{Value: v, Unit: unit}
}

func (r *Result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes, a name/value/unit table in declaration order,
// and the JSON object as the last line.
func (r *Result) print(out *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	for _, group := range [][]Metric{endToEnd, perLayer} {
		for _, m := range group {
			if v, ok := r.Metrics[m.Name]; ok {
				fmt.Fprintf(out, "%-36s %16.4f %s\n", m.Name, v.Value, v.Unit)
			}
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(out, string(line))
}

// machineRecord describes the box a run was made on; every run prints it
// so a number is never read without its machine.
func machineRecord() string {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			return "?"
		}
		return strings.TrimSpace(string(b))
	}
	model := "?"
	for _, line := range strings.Split(read("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			model = strings.TrimSpace(v)
			break
		}
	}
	load, _, _ := strings.Cut(read("/proc/loadavg"), " ")
	return fmt.Sprintf("machine: nproc=%d cpu=%q kernel=%s go=%s GOMAXPROCS=%d daemon-shards=%d load1=%s",
		runtime.NumCPU(), model, read("/proc/sys/kernel/osrelease"), runtime.Version(),
		runtime.GOMAXPROCS(0), defaultShards(), load)
}

// defaultShards is the shard count a daemon started without one runs:
// min(GOMAXPROCS, 8).
func defaultShards() int { return min(runtime.GOMAXPROCS(0), 8) }

// childArgs is the command line that repeats cfg in another process.
func childArgs(cfg RunConfig, seed uint64, trace int) []string {
	return []string{
		"--workload", cfg.Workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
	}
}
