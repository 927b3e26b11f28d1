package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuNow returns the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocsNow returns the process's cumulative heap allocation count. It
// stops the world, so it is read at the ends of a phase only.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// segment is one short stretch of a throughput phase: what n messages
// cost in wall-clock and in CPU time.
type segment struct {
	wall, cpu time.Duration
	n         int64
}

// meter accumulates one run's measurements over its rounds. A run is a
// few independent rounds — build a world, warm it, measure it, close it —
// each giving one setup_s sample and its share of the timed work, cut
// into segments of a few milliseconds.
type meter struct {
	setups []float64
	// rounds holds each round's throughput segments in order.
	rounds [][]segment
	// replayed says that every round ran the same inputs in virtual time,
	// so that segment i holds the same work in each of them.
	replayed  bool
	mallocs   uint64
	delivered int64
	wall      time.Duration
	// windows holds each latency window's samples, sorted.
	windows [][]float64
	// onTime holds each round's share of attempted messages that arrived
	// intact within the workload's limit.
	onTime []float64
}

// segments cuts one round's throughput phase into short segments.
type segments struct {
	m         *meter
	cur       []segment
	wall      time.Time
	cpu       time.Duration
	mallocs   uint64
	startWall time.Time
}

// begin opens the phase and its first segment.
func (s *segments) begin() {
	s.mallocs = mallocsNow()
	s.wall, s.cpu = time.Now(), cpuNow()
	s.startWall = s.wall
}

// cut closes a segment in which n messages were sent or delivered.
func (s *segments) cut(n int64) {
	wall, cpu := time.Now(), cpuNow()
	s.cur = append(s.cur, segment{wall.Sub(s.wall), cpu - s.cpu, n})
	s.m.delivered += n
	s.wall, s.cpu = wall, cpu
}

// end closes the phase.
func (s *segments) end() {
	s.m.rounds = append(s.m.rounds, s.cur)
	s.m.wall += s.wall.Sub(s.startWall)
	s.m.mallocs += mallocsNow() - s.mallocs
}

// quietShare is the share of a chain run's segments taken as undisturbed.
const quietShare = 0.05

// throughput returns the wall-clock microseconds per message with the
// host's interference taken out as far as one run can, and the cores the
// process kept busy meanwhile.
//
// The guest this runs on is slowed by its host's other tenants by a fifth
// to a third for seconds at a time: a fixed 1.3 ms loop timed back to back
// for 20 s had its mean move 1 570–2 000 us and its median 1 500–1 900 us
// over twenty such runs, and its 5 % quantile 1 350–1 640 us with a third
// of the mean's spread between the quartiles (STABILITY.md). The
// slowdown shows in CPU time as much as in wall-clock time, so getrusage
// does not see past it either. What repeats is how fast the work goes
// when it is left alone, so that is what a run reports.
//
// The chain's segments all hold the same work, and its cost per message is
// the quietShare quantile over all the run's segments. A virtual-time
// world's segments do not (a slice with a node restart in it costs twenty
// slices without), so its rounds replay one world, segment i costs what its
// fastest replay took, and the run's cost is the sum of those over the
// messages of one replay. Either way a change to the program moves every
// segment and shows; a neighbour's burst does not, as long as it leaves
// some of them alone.
//
// busy is the median over all segments of CPU time over wall-clock time:
// both stretch together under a slowdown, so their ratio holds (1.2 %
// between the quartiles of ten chain runs whose CPU time per message
// spread 7 %).
func (m *meter) throughput() (wallUs, busy float64) {
	var ratios []float64
	for _, r := range m.rounds {
		for _, s := range r {
			ratios = append(ratios, float64(s.cpu)/float64(s.wall))
		}
	}
	busy = median(ratios)
	if !m.replayed {
		var walls []float64
		for _, r := range m.rounds {
			for _, s := range r {
				walls = append(walls, float64(s.wall.Nanoseconds())/1e3/float64(s.n))
			}
		}
		return quantile(walls, quietShare), busy
	}
	var wall time.Duration
	var n int64
	for i, s := range m.rounds[0] {
		for _, r := range m.rounds[1:] {
			s.wall = min(s.wall, r[i].wall)
		}
		wall, n = wall+s.wall, n+s.n
	}
	return float64(wall.Nanoseconds()) / 1e3 / float64(n), busy
}

// replaysAgree reports whether every round cut the same segments with the
// same message counts, as replays of one virtual-time world must.
func (m *meter) replaysAgree() bool {
	for _, r := range m.rounds[1:] {
		if len(r) != len(m.rounds[0]) {
			return false
		}
		for i, s := range r {
			if s.n != m.rounds[0][i].n {
				return false
			}
		}
	}
	return true
}

// window adds one latency window's samples (microseconds); it keeps a
// sorted copy.
func (m *meter) window(us []float64) {
	if len(us) == 0 {
		return
	}
	w := append([]float64(nil), us...)
	sort.Float64s(w)
	m.windows = append(m.windows, w)
}

// latency returns the reported p50 and p90: the median over the windows
// of each window's own median and 90th percentile. Every sample counts
// towards its window; a stall of the host spoils the windows it falls in
// and, as long as those are the minority, leaves the medians alone, while
// anything the program does to every window (a flush timer, head-of-line
// blocking, a collection every few windows) moves them.
func (m *meter) latency() (p50, p90 float64) {
	var p50s, p90s []float64
	for _, w := range m.windows {
		p50s = append(p50s, quantile(w, 0.5))
		p90s = append(p90s, quantile(w, 0.9))
	}
	return median(p50s), median(p90s)
}

// fill sets the end-to-end metrics the meter owns and the latency
// diagnostics.
func (m *meter) fill(res *Result) {
	wallUs, busy := m.throughput()
	res.set("setup_s", median(m.setups))
	res.set("msgs_per_s", 1e6/wallUs)
	res.set("cpu_us_per_msg", busy*wallUs)
	res.set("on_time_share", median(m.onTime))
	res.set("allocs_per_msg", float64(m.mallocs)/float64(max(m.delivered, 1)))
	res.diag["delivered"] = float64(m.delivered)
	res.diag["wall_s"] = m.wall.Seconds()
	res.diag["oneway_p50_us"], res.diag["oneway_p90_us"] = m.latency()
	// The tail percentiles are taken over every sample.
	var all []float64
	for _, w := range m.windows {
		all = append(all, w...)
	}
	res.diag["oneway_p99_us"] = quantile(all, 0.99)
	res.diag["oneway_p999_us"] = quantile(all, 0.999)
	res.diag["oneway_samples"] = float64(len(all))
	res.notef("throughput: %d messages in %d segments a round over %.2fs, %.2f cores busy",
		m.delivered, len(m.rounds[0]), m.wall.Seconds(), busy)
	res.notef("one-way latency (not gated): %d samples in %d windows; p50 %.0f us, p90 %.0f us, p99 %.0f us, p99.9 %.0f us",
		len(all), len(m.windows), res.diag["oneway_p50_us"], res.diag["oneway_p90_us"],
		res.diag["oneway_p99_us"], res.diag["oneway_p999_us"])
}

// latencyWindows groups one round's latency samples into equal-count
// windows for the meter.
type latencyWindows struct {
	m      *meter
	window int
	cur    []float64
}

func newLatencyWindows(m *meter, window int) *latencyWindows {
	return &latencyWindows{m: m, window: window, cur: make([]float64, 0, window)}
}

func (l *latencyWindows) add(us float64) {
	l.cur = append(l.cur, us)
	if len(l.cur) == l.window {
		l.m.window(l.cur)
		l.cur = l.cur[:0]
	}
}

// finish folds a trailing partial window in when it is at least half
// full; a sliver's percentiles would be noise.
func (l *latencyWindows) finish() {
	if len(l.cur) >= l.window/2 {
		l.m.window(l.cur)
	}
	l.cur = l.cur[:0]
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
