// Package experiments contains one driver per reproduced figure, table,
// or quantitative claim of the paper (see DESIGN.md §4 for the index).
// Each driver starts an emulated world on the scenario harness
// (scenario.go), runs the traffic in virtual time, and returns a Result
// whose table holds the same rows/series the paper reports. cmd/benchrun
// prints them (`benchrun -only <ID>`) and the package's smoke test asserts
// every driver's shape check; Index is the one list both iterate.
package experiments

import (
	"fmt"
	"strings"

	"sonet/internal/metrics"
)

// Result is one experiment's reproduction output.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "EXP-F3").
	ID string
	// Title names the experiment.
	Title string
	// PaperClaim restates what the paper says should happen.
	PaperClaim string
	// Table holds the reproduced series.
	Table *metrics.Table
	// Extra holds supplementary tables (scale sweeps and the like).
	Extra []*metrics.Table
	// Findings are the headline measured numbers.
	Findings []string
	// ShapeHolds reports whether the paper's qualitative claim held (who
	// wins, by roughly what factor).
	ShapeHolds bool
	// CountsHold is the part of ShapeHolds that does not depend on how
	// fast this machine happened to run: deliveries, ledgers, allocations,
	// shares. The two drivers that time the host (EXP-CONV, EXP-WIRE) set
	// it apart, so go test can assert it while only benchrun asserts their
	// wall-clock floors; for every other driver Run makes it ShapeHolds.
	CountsHold bool
}

// String renders the result for the console.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper: %s\n\n", r.PaperClaim)
	b.WriteString(r.Table.String())
	b.WriteByte('\n')
	for _, t := range r.Extra {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  • %s\n", f)
	}
	status := "HOLDS"
	if !r.ShapeHolds {
		status = "DOES NOT HOLD"
	}
	fmt.Fprintf(&b, "  ⇒ paper's shape %s\n", status)
	return b.String()
}

// addFinding appends a formatted finding.
func (r *Result) addFinding(format string, args ...any) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}

// Experiment is one row of the index: an ID from DESIGN.md §4 and the
// driver that reproduces it, which only Run calls.
type Experiment struct {
	ID     string
	driver func(seed uint64) *Result
}

// Run runs the experiment's driver. A scenario the harness could not build
// comes back as a Result whose only finding is the ERROR and whose shape
// does not hold, so one broken driver neither aborts a benchrun nor passes
// for a reproduction.
func (e Experiment) Run(seed uint64) (r *Result) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		se, ok := p.(scenarioError)
		if !ok {
			panic(p)
		}
		r = &Result{ID: e.ID, Title: "scenario could not be built", PaperClaim: "-", Table: metrics.NewTable()}
		r.addFinding("ERROR: %v", se.error)
	}()
	r = e.driver(seed)
	r.CountsHold = r.CountsHold || r.ShapeHolds
	return r
}

// Index lists every experiment exactly once, in DESIGN.md §4 order.
// cmd/benchrun, All and the package's smoke test iterate it, so an
// experiment added here is run, filtered and asserted everywhere.
var Index = []Experiment{
	{"EXP-F3", Fig3HopByHop},
	{"EXP-F4", Fig4NMStrikes},
	{"EXP-REROUTE", Reroute},
	{"EXP-MCAST", Multicast},
	{"EXP-MONCTL", MonitoringControl},
	{"EXP-IT", IntrusionTolerance},
	{"EXP-FAIR", Fairness},
	{"EXP-RTRM", RemoteManipulation},
	{"EXP-ANYCAST", Anycast},
	{"EXP-MULTIHOME", Multihoming},
	{"EXP-COMPOUND", CompoundFlow},
	{"EXP-METRIC", RoutingMetric},
	{"EXP-GLOBAL", GlobalCoverage},
	{"EXP-CLIQUE", TopologyClique},
	{"EXP-CONV", ConvergenceScale},
	{"EXP-WIRE", WireThroughput},
	{"EXP-CHAOS", Chaos},
	{"EXP-CHURN", Churn},
}

// Select returns the experiments whose ID contains only, in index order;
// the empty string selects all of them.
func Select(only string) []Experiment {
	var out []Experiment
	for _, e := range Index {
		if strings.Contains(e.ID, only) {
			out = append(out, e)
		}
	}
	return out
}
