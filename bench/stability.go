package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
)

// runChild runs one untraced run of this same binary in a fresh process,
// as the driver does, so no run inherits another's heap or warm pools.
func runChild(cfg RunConfig, seed uint64) (*Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, childArgs(cfg, seed, 0)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run with seed %d: %w", seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	res := newResult()
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("run with seed %d: last line is not a result: %w", seed, err)
	}
	return res, nil
}

// column collects one metric's values over a set of runs.
func column(runs []*Result, name string) []float64 {
	xs := make([]float64, 0, len(runs))
	for _, r := range runs {
		xs = append(xs, r.Metrics[name].Value)
	}
	return xs
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method), the
// definition the driver applies to its own runs.
func quartiles(xs []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p*float64(len(xs)+1) - 1
		lo := min(max(int(math.Floor(pos)), 0), len(xs)-2)
		return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	}
	if len(xs) < 2 {
		return xs[0], xs[0]
	}
	return at(0.25), at(0.75)
}

// runRepeat runs n fresh processes on consecutive seeds and prints, as
// Markdown tables, every run and each end-to-end metric's spread.
func runRepeat(wl *Workload, cfg RunConfig, n int) int {
	var runs []*Result
	failed := 0
	for i := 0; i < n; i++ {
		res, err := runChild(cfg, cfg.Seed+uint64(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if res.Failed > 0 || !res.Correct {
			failed++
		}
		runs = append(runs, res)
	}
	fmt.Printf("\n### %s — %d runs, seeds %d..%d, --seconds %g; %d runs with failed operations or an incorrect output\n\n",
		wl.Name, n, cfg.Seed, cfg.Seed+uint64(n)-1, cfg.Seconds, failed)
	fmt.Print("| seed |")
	for _, m := range endToEnd {
		fmt.Printf(" `%s` |", m.Name)
	}
	fmt.Print(" failed |\n|---|")
	for range endToEnd {
		fmt.Print("---|")
	}
	fmt.Println("---|")
	for i, r := range runs {
		fmt.Printf("| %d |", cfg.Seed+uint64(i))
		for _, m := range endToEnd {
			fmt.Printf(" %.4f |", r.Metrics[m.Name].Value)
		}
		fmt.Printf(" %d |\n", r.Failed)
	}
	fmt.Println()
	fmt.Println("| metric | unit | min | q1 | median | q3 | max | IQR/median | (max−min)/median | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for _, m := range endToEnd {
		xs := column(runs, m.Name)
		med := median(xs) // sorts xs
		q1, q3 := quartiles(xs)
		fmt.Printf("| `%s` | %s | %.4f | %.4f | %.4f | %.4f | %.4f | %.2f %% | %.2f %% | %.3g %% |\n",
			m.Name, m.Unit, xs[0], q1, med, q3, xs[len(xs)-1],
			100*(q3-q1)/med, 100*(xs[len(xs)-1]-xs[0])/med, 100*m.Bound)
	}
	return 0
}

// runAA interleaves two sets of n runs of this one binary (A1 B1 A2 B2 …,
// the same seeds on both sides) and reports every metric whose two
// medians differ by more than its bound (a share of the first median, as
// the driver reads BENCHMARK.json), or when any run failed an operation.
// An A/A difference is noise by construction, so a non-zero exit means
// the benchmark cannot resolve a change of the size its bounds claim to
// catch.
func runAA(wl *Workload, cfg RunConfig, n int) int {
	var a, b []*Result
	bad := 0
	for i := 0; i < n; i++ {
		for _, side := range []*[]*Result{&a, &b} {
			res, err := runChild(cfg, cfg.Seed+uint64(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			if res.Failed > 0 || !res.Correct {
				fmt.Printf("seed %d: %d failed operations, correct %v\n", cfg.Seed+uint64(i), res.Failed, res.Correct)
				bad++
			}
			*side = append(*side, res)
		}
	}
	fmt.Printf("\nA/A %s: two interleaved sets of %d runs\n", wl.Name, n)
	for _, m := range endToEnd {
		ma, mb := median(column(a, m.Name)), median(column(b, m.Name))
		diff := math.Abs(ma-mb) / ma
		verdict := "ok"
		if diff > m.Bound {
			verdict = "DIFFERS"
			bad++
		}
		fmt.Printf("%-16s A %14.4f  B %14.4f  %6.2f %% (bound %.3g %%) %s\n", m.Name, ma, mb, 100*diff, 100*m.Bound, verdict)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
