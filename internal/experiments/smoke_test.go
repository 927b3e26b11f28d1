package experiments

import (
	"hash/fnv"
	"os"
	"regexp"
	"testing"
)

// goldenResults is the behaviour witness for the drivers: FNV-1a of
// Result.String() at each experiment's index seed. A refactor that claims
// "same reproduction" moves none of them; a deliberate change to a
// protocol or a scenario updates the table in the same commit and says
// why. EXP-CONV and EXP-WIRE are absent on purpose: their tables carry
// wall-clock timing columns (SPF µs, Mpps on this machine), so two runs of
// the same binary already differ.
var goldenResults = map[string]uint64{
	"EXP-F3":        0xc49ed51081656db8,
	"EXP-F4":        0x758e0ebf133fd3e7,
	"EXP-REROUTE":   0xf5534571085b33c7,
	"EXP-MCAST":     0xf8a2d4bb23963f28,
	"EXP-MONCTL":    0xf89ac5bf04ecca6a,
	"EXP-IT":        0xf819197d2e355c29,
	"EXP-FAIR":      0xf6e7a739016ca1ff,
	"EXP-RTRM":      0x9f12b21400355751,
	"EXP-ANYCAST":   0x29b444a15d34fb9e,
	"EXP-MULTIHOME": 0x59b4f9e154dbcb15,
	"EXP-COMPOUND":  0xfc680e6c00a15802,
	"EXP-METRIC":    0xc0419a4140ac76ed,
	"EXP-GLOBAL":    0xe6aa5cc893d52eb2,
	"EXP-CLIQUE":    0x0d1bf7cb1d6c8fcc,
	"EXP-CHAOS":     0xb11603dd562ce206,
	"EXP-CHURN":     0xb525ff5242fc7526,
}

// TestExperimentsSmoke runs every driver in the index once with its
// default seed (the one All uses), asserts the paper's shape and checks
// the rendered result against goldenResults; one experiment is
// `go test -run 'TestExperimentsSmoke/EXP-CHURN$' -v`. The shape asserted
// is Result.CountsHold: all of it for the virtual-time drivers, and for
// EXP-CONV and EXP-WIRE everything but their wall-clock floors, which
// only `make experiments` asserts — a loaded machine must not fail tier-1.
func TestExperimentsSmoke(t *testing.T) {
	if want := len(Index) - 2; len(goldenResults) != want {
		t.Errorf("golden table pins %d experiments, want %d (all but EXP-CONV and EXP-WIRE)", len(goldenResults), want)
	}
	for i, e := range Index {
		t.Run(e.ID, func(t *testing.T) {
			r := e.Run(uint64(i) + 1)
			t.Log("\n" + r.String())
			if r.ID != e.ID {
				t.Fatalf("index entry %s runs a driver that reports %s", e.ID, r.ID)
			}
			if !r.CountsHold {
				t.Fatal("shape does not hold")
			}
			if e.ID == "EXP-CONV" || e.ID == "EXP-WIRE" {
				return
			}
			h := fnv.New64a()
			h.Write([]byte(r.String()))
			if got, want := h.Sum64(), goldenResults[e.ID]; got != want {
				t.Errorf("rendered result hashes to %#016x, pinned %#016x", got, want)
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
