package experiments

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkConvergenceScale is EXP-CONV's incremental column under the
// testing.B clock: each iteration is one convWorld churn event (a link
// flips, the flood reaches everyone) followed by every measured engine
// reconverging off the view change journal and answering its antipodal
// query. An iteration is len(engines) reconvergences — all n nodes up to
// 64, 64 sampled ones beyond — so ns/op is suppressed and ns/node is the
// one number that compares across sizes.
func BenchmarkConvergenceScale(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096, 10240} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w, err := buildConvWorld(n)
			if err != nil {
				b.Fatal(err)
			}
			w.churn(1)
			w.reconvergeAll() // warm every engine's scratch
			b.ReportAllocs()
			b.ResetTimer()
			var busy time.Duration
			for i := 0; i < b.N; i++ {
				w.churn(i)
				busy += w.reconvergeAll()
			}
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N*len(w.engines)), "ns/node")
		})
	}
}

// TestConvergenceAllocBudget guards the whole reconvergence path (`make
// bench-guard`): after a churn event, a warmed engine's recompute-and-query
// must not allocate (SPT scratch reuse plus the stamped next-hop memo).
func TestConvergenceAllocBudget(t *testing.T) {
	w, err := buildConvWorld(64)
	if err != nil {
		t.Fatal(err)
	}
	round := 0
	reconverge := func() {
		round++
		w.churn(round)
		w.engines[0].Reachable(w.probes[0])
	}
	for i := 0; i < 4; i++ {
		reconverge() // warm the engine scratch and next-hop memo
	}
	if avg := testing.AllocsPerRun(100, reconverge); avg > 0 {
		t.Fatalf("warmed reconvergence allocates %.2f allocs/op, budget is 0", avg)
	}
}
