package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestLatenciesEmpty(t *testing.T) {
	var l Latencies
	if l.Count() != 0 || l.Min() != 0 || l.Max() != 0 || l.Mean() != 0 {
		t.Fatal("empty Latencies returned nonzero summaries")
	}
	if l.Percentile(50) != 0 || l.Jitter() != 0 || l.OnTime(time.Second) != 0 {
		t.Fatal("empty Latencies returned nonzero percentile/jitter/ontime")
	}
}

func TestLatenciesSummaries(t *testing.T) {
	var l Latencies
	for _, ms := range []int{50, 10, 30, 20, 40} {
		l.Add(time.Duration(ms) * time.Millisecond)
	}
	if l.Count() != 5 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Min() != 10*time.Millisecond || l.Max() != 50*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", l.Min(), l.Max())
	}
	if l.Mean() != 30*time.Millisecond {
		t.Fatalf("Mean = %v", l.Mean())
	}
	if got := l.Percentile(50); got != 30*time.Millisecond {
		t.Fatalf("P50 = %v, want 30ms", got)
	}
	if got := l.Percentile(100); got != 50*time.Millisecond {
		t.Fatalf("P100 = %v, want 50ms", got)
	}
	if got := l.Percentile(0); got != 10*time.Millisecond {
		t.Fatalf("P0 = %v, want 10ms", got)
	}
}

func TestLatenciesOnTime(t *testing.T) {
	var l Latencies
	l.Add(10 * time.Millisecond)
	l.Add(20 * time.Millisecond)
	l.Add(200 * time.Millisecond)
	l.Add(300 * time.Millisecond)
	if got := l.OnTime(200 * time.Millisecond); got != 0.75 {
		t.Fatalf("OnTime = %v, want 0.75", got)
	}
}

func TestLatenciesJitter(t *testing.T) {
	var l Latencies
	l.Add(10 * time.Millisecond)
	l.Add(14 * time.Millisecond)
	l.Add(12 * time.Millisecond)
	if got := l.Jitter(); got != 3*time.Millisecond {
		t.Fatalf("Jitter = %v, want 3ms", got)
	}
	var constLat Latencies
	for i := 0; i < 10; i++ {
		constLat.Add(5 * time.Millisecond)
	}
	if constLat.Jitter() != 0 {
		t.Fatalf("constant stream jitter = %v, want 0", constLat.Jitter())
	}
}

// TestPercentileMatchesSortProperty cross-checks Percentile against direct
// sorted indexing on random inputs.
func TestPercentileMatchesSortProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	prop := func() bool {
		n := 1 + r.Intn(200)
		var l Latencies
		vals := make([]time.Duration, n)
		for i := range vals {
			vals[i] = time.Duration(r.Intn(1000)) * time.Microsecond
			l.Add(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, p := range []float64{1, 25, 50, 75, 99} {
			rank := int((p/100)*float64(n) + 0.9999999)
			if rank < 1 {
				rank = 1
			}
			if rank > n {
				rank = n
			}
			if l.Percentile(p) != vals[rank-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := NewTable("proto", "p99", "ontime")
	tab.AddRow("e2e", 150*time.Millisecond, 0.95)
	tab.AddRow("hopbyhop", 70*time.Millisecond, 0.999)
	out := tab.String()
	if !strings.Contains(out, "150.00ms") || !strings.Contains(out, "70.00ms") {
		t.Fatalf("durations not formatted in ms:\n%s", out)
	}
	if !strings.Contains(out, "0.950") {
		t.Fatalf("float not formatted:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}
