package experiments

import (
	"os"
	"regexp"
	"testing"
)

// TestExperimentsSmoke runs every driver in the index once with its
// default seed (the one All uses) and asserts the paper's shape; one
// experiment is `go test -run 'TestExperimentsSmoke/EXP-CHURN$' -v`.
func TestExperimentsSmoke(t *testing.T) {
	for i, e := range Index {
		t.Run(e.ID, func(t *testing.T) {
			r := e.Run(uint64(i) + 1)
			t.Log("\n" + r.String())
			if r.ID != e.ID {
				t.Fatalf("index entry %s runs a driver that reports %s", e.ID, r.ID)
			}
			if !r.ShapeHolds {
				t.Fatal("shape does not hold")
			}
		})
	}
}

// TestIndex pins the single experiment list: IDs are unique, each one
// resolves through benchrun's -only filter to exactly itself, and the set
// equals the rows of DESIGN.md §4 that name a benchrun target.
func TestIndex(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Index {
		if seen[e.ID] {
			t.Errorf("%s listed twice", e.ID)
		}
		seen[e.ID] = true
		if got := Select(e.ID); len(got) != 1 || got[0].ID != e.ID {
			t.Errorf("-only %s selects %v, want exactly that experiment", e.ID, got)
		}
	}
	if got := Select(""); len(got) != len(Index) {
		t.Errorf("empty filter selects %d of %d", len(got), len(Index))
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| (EXP-[A-Z0-9]+) \\|.*`benchrun -only [A-Z0-9]+` \\|$").FindAllSubmatch(design, -1)
	if len(rows) != len(Index) {
		t.Errorf("DESIGN.md §4 lists %d benchrun experiments, the index %d", len(rows), len(Index))
	}
	for _, m := range rows {
		if !seen[string(m[1])] {
			t.Errorf("DESIGN.md §4 lists %s, the index does not", m[1])
		}
	}
}

// TestExperimentsDeterministic verifies the reproduction harness itself:
// the same seed regenerates the identical table, byte for byte.
func TestExperimentsDeterministic(t *testing.T) {
	a := Fig3HopByHop(9).String()
	b := Fig3HopByHop(9).String()
	if a != b {
		t.Fatalf("Fig3 diverged between identical runs:\n%s\n---\n%s", a, b)
	}
	c := Reroute(9).String()
	d := Reroute(9).String()
	if c != d {
		t.Fatal("Reroute diverged between identical runs")
	}
}
