package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around its calls into sonet; they are held in
// memory and written out when the run ends.
type span struct {
	name       string
	start, end int64 // ns on the trace clock
	child      int64 // ns covered by child spans
	parent     int32 // index in the same lane, -1 for a root
	msg        uint64
}

// lane holds the spans of one goroutine, so recording takes no lock; a
// span's parent is the span open on the same lane when it began. A nil
// lane records nothing, which is how the untraced run pays only a nil
// check at each hook.
type lane struct {
	name  string
	epoch time.Time
	spans []span
	cur   int32
}

// newLane returns a lane with room for expect spans: growing a
// million-span slice mid-run would stall the goroutine being traced.
func newLane(name string, epoch time.Time, expect int) *lane {
	return &lane{name: name, epoch: epoch, cur: -1, spans: make([]span, 0, expect)}
}

// open starts a span for message msg (0 when it belongs to none).
func (l *lane) open(name string, msg uint64) int32 {
	if l == nil {
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, start: int64(time.Since(l.epoch)), parent: l.cur, msg: msg})
	l.cur = id
	return id
}

// close ends span id and charges its duration to its parent.
func (l *lane) close(id int32) {
	if l == nil {
		return
	}
	s := &l.spans[id]
	s.end = int64(time.Since(l.epoch))
	l.cur = s.parent
	if s.parent >= 0 {
		l.spans[s.parent].child += s.end - s.start
	}
}

// msgID names one application message across lanes.
func msgID(flow uint16, seq uint32) uint64 { return uint64(flow)<<32 | uint64(seq) }

// spanSum aggregates the spans of one name.
type spanSum struct {
	count   int64
	totalNs int64
	// selfNs is the time not covered by child spans.
	selfNs int64
}

func (s spanSum) meanNs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.totalNs) / float64(s.count)
}

func (s spanSum) meanSelfNs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.selfNs) / float64(s.count)
}

// sumSpans aggregates closed spans by name over the given lanes.
func sumSpans(lanes ...*lane) map[string]spanSum {
	out := make(map[string]spanSum)
	for _, l := range lanes {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			if s.end == 0 {
				continue
			}
			agg := out[s.name]
			agg.count++
			agg.totalNs += s.end - s.start
			agg.selfNs += s.end - s.start - s.child
			out[s.name] = agg
		}
	}
	return out
}

// chromeTraceLimit caps the spans written per lane: the file is for
// looking at a few thousand messages in a viewer, the aggregates use
// every span.
const chromeTraceLimit = 50000

// writeChromeTrace writes the lanes as Chrome trace-event JSON (load it
// in chrome://tracing or ui.perfetto.dev).
func writeChromeTrace(path string, lanes ...*lane) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for tid, l := range lanes {
		if l == nil {
			continue
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, l.name)
		for i, s := range l.spans {
			if i >= chromeTraceLimit {
				break
			}
			if s.end == 0 {
				continue
			}
			fmt.Fprintf(w, `,{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"msg":%d,"parent":%d}}`,
				s.name, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.msg, s.parent)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedNames returns the keys of m in order, for stable reports.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
