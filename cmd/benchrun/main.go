// Command benchrun regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4) and prints the reproduced series with a
// paper-shape verdict per experiment.
//
// Usage:
//
//	benchrun [-only substring] [-seed n]
//
// -only filters experiments by ID substring (e.g. "F3", "IT").
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sonet/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	only := flag.String("only", "", "run only experiments whose ID contains this substring")
	seed := flag.Uint64("seed", 1, "base determinism seed")
	flag.Parse()

	selected := experiments.Select(*only)
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchrun: no experiment matches -only=%q\n", *only)
		return 2
	}
	failures := 0
	for _, e := range selected {
		start := time.Now()
		res := e.Run(*seed)
		fmt.Println(res.String())
		fmt.Printf("  (wall time %.1fs)\n\n", time.Since(start).Seconds())
		if !res.ShapeHolds {
			failures++
		}
	}
	fmt.Printf("== %d/%d experiments reproduce the paper's shape ==\n", len(selected)-failures, len(selected))
	if failures > 0 {
		return 1
	}
	return 0
}
