package link

import (
	"math/rand"
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

func strikesPair(sched *sim.Scheduler, latency time.Duration, cfg StrikesConfig) *pipe {
	p := newPipe(sched, latency)
	p.a.proto = NewStrikes(p.a, cfg)
	p.b.proto = NewStrikes(p.b, cfg)
	return p
}

// continentalStrikes returns the paper's live-TV setting: a 40 ms path
// with a 160 ms recovery budget (§IV-A).
func continentalStrikes() StrikesConfig {
	return StrikesConfig{N: 3, M: 2, Budget: 160 * time.Millisecond, RTT: 80 * time.Millisecond}
}

func TestStrikesLosslessDelivery(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := strikesPair(sched, 10*time.Millisecond, StrikesConfig{})
	for i := uint32(1); i <= 50; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.RunFor(time.Second)
	if len(p.b.delivered) != 50 {
		t.Fatalf("delivered %d, want 50", len(p.b.delivered))
	}
	st := p.a.proto.Stats()
	if st.Retransmissions != 0 || p.b.proto.Stats().Requests != 0 {
		t.Fatalf("lossless run recovered: %+v", st)
	}
}

func TestStrikesRecoversSingleLoss(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := strikesPair(sched, 20*time.Millisecond, continentalStrikes())
	dropped := false
	p.a.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FData && f.Seq == 2 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	var recoveredAt time.Duration
	sendAt := make(map[uint32]time.Duration)
	base := p.b.proto
	p.b.proto = &deliverHook{Protocol: base, hook: func(pk *wire.Packet) {
		if pk.FlowSeq == 2 && recoveredAt == 0 {
			recoveredAt = sched.Now()
		}
	}}
	for i := uint32(1); i <= 5; i++ {
		i := i
		sched.After(time.Duration(i-1)*10*time.Millisecond, func() {
			sendAt[i] = sched.Now()
			p.a.proto.Send(dataPacket(i))
		})
	}
	sched.RunFor(2 * time.Second)
	if len(p.b.delivered) != 5 {
		t.Fatalf("delivered %d, want 5", len(p.b.delivered))
	}
	if recoveredAt == 0 {
		t.Fatal("seq 2 never recovered")
	}
	// Loss revealed at 40ms (seq 3 arrival at 20+20); first request
	// immediately, sender replies at 60ms, recovery lands at 80ms. One-way
	// extra delay = 80 - (10 + 20) = 50ms ≈ one RTT + detection gap.
	if recoveredAt != 80*time.Millisecond {
		t.Fatalf("recovered at %v, want 80ms", recoveredAt)
	}
}

func TestStrikesSurvivesRequestLoss(t *testing.T) {
	// The first request dies; the second spaced strike recovers the
	// packet — the core burst-dodging behaviour of Fig. 4.
	sched := sim.NewScheduler(1)
	cfg := StrikesConfig{N: 3, M: 1, Budget: 150 * time.Millisecond, RTT: 20 * time.Millisecond}
	p := strikesPair(sched, 10*time.Millisecond, cfg)
	dropData := true
	p.a.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FData && f.Seq == 1 && dropData {
			dropData = false
			return true
		}
		return false
	}
	reqsDropped := 0
	p.b.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FReq && reqsDropped == 0 {
			reqsDropped++
			return true
		}
		return false
	}
	p.a.proto.Send(dataPacket(1))
	sched.After(10*time.Millisecond, func() { p.a.proto.Send(dataPacket(2)) })
	sched.RunFor(time.Second)
	if len(p.b.delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(p.b.delivered))
	}
	if got := p.b.proto.Stats().Requests; got < 2 {
		t.Fatalf("requests = %d, want >= 2 (first was dropped)", got)
	}
}

func TestStrikesCancelsRemainingRequestsOnRecovery(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := StrikesConfig{N: 5, M: 1, Budget: 500 * time.Millisecond, RTT: 20 * time.Millisecond}
	p := strikesPair(sched, 10*time.Millisecond, cfg)
	dropData := true
	p.a.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FData && f.Seq == 1 && dropData {
			dropData = false
			return true
		}
		return false
	}
	p.a.proto.Send(dataPacket(1))
	sched.After(10*time.Millisecond, func() { p.a.proto.Send(dataPacket(2)) })
	sched.RunFor(5 * time.Second)
	if len(p.b.delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(p.b.delivered))
	}
	// Recovery arrives ~20ms after the first request; the remaining 4
	// scheduled strikes (spaced 96ms apart) must be cancelled.
	if got := p.b.proto.Stats().Requests; got != 1 {
		t.Fatalf("requests = %d, want 1 (rest cancelled)", got)
	}
}

func TestStrikesGivesUpAfterBudget(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := StrikesConfig{N: 2, M: 2, Budget: 100 * time.Millisecond, RTT: 20 * time.Millisecond}
	p := strikesPair(sched, 10*time.Millisecond, cfg)
	p.a.drop = func(f *wire.Frame) bool { return f.Kind == wire.FData && f.Seq == 1 }
	p.b.drop = func(f *wire.Frame) bool { return false }
	p.a.proto.Send(dataPacket(1))
	sched.After(10*time.Millisecond, func() { p.a.proto.Send(dataPacket(2)) })
	sched.RunFor(5 * time.Second)
	if len(p.b.delivered) != 1 {
		t.Fatalf("delivered %d, want 1 (seq 1 unrecoverable)", len(p.b.delivered))
	}
	// Requests bounded by N; afterwards the gap is off the schedule and
	// behind the window's edge.
	st := p.b.proto.Stats()
	if st.Requests > 2 {
		t.Fatalf("requests = %d, want <= N=2", st.Requests)
	}
	strikes, ok := p.b.proto.(*Strikes)
	if !ok {
		t.Fatal("not a Strikes")
	}
	if n := strikes.gaps.Len(); n != 0 {
		t.Fatalf("%d gap entries left after the budget", n)
	}
	if got := strikes.recvWin.Cum(); got != 2 {
		t.Fatalf("cumulative edge %d after giving seq 1 up, want 2", got)
	}
}

func TestStrikesSenderSchedulesMRetransmissions(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := StrikesConfig{N: 1, M: 3, Budget: 200 * time.Millisecond, RTT: 20 * time.Millisecond}
	p := strikesPair(sched, 10*time.Millisecond, cfg)
	// Drop the original and all retransmissions so all M copies go out.
	p.a.drop = func(f *wire.Frame) bool { return f.Kind == wire.FData && f.Seq == 1 }
	p.a.proto.Send(dataPacket(1))
	sched.After(10*time.Millisecond, func() { p.a.proto.Send(dataPacket(2)) })
	sched.RunFor(5 * time.Second)
	if got := p.a.proto.Stats().Retransmissions; got != 3 {
		t.Fatalf("retransmissions = %d, want M=3", got)
	}
}

func TestStrikesDuplicateRetransmissionsSuppressed(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := StrikesConfig{N: 1, M: 3, Budget: 200 * time.Millisecond, RTT: 20 * time.Millisecond}
	p := strikesPair(sched, 10*time.Millisecond, cfg)
	dropOnce := true
	p.a.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FData && f.Seq == 1 && dropOnce {
			dropOnce = false
			return true
		}
		return false
	}
	p.a.proto.Send(dataPacket(1))
	sched.After(10*time.Millisecond, func() { p.a.proto.Send(dataPacket(2)) })
	sched.RunFor(5 * time.Second)
	if len(p.b.delivered) != 2 {
		t.Fatalf("delivered %d, want 2 distinct", len(p.b.delivered))
	}
	// M=3 copies answered one request; two arrive as duplicates.
	if got := p.b.proto.Stats().DuplicatesDropped; got != 2 {
		t.Fatalf("duplicates = %d, want 2", got)
	}
}

// TestStrikesSingleStrikeConfig runs the single-strike VoIP configuration
// (§V-A, citing 1-800-OVERLAYS): one request and one retransmission per
// lost packet.
func TestStrikesSingleStrikeConfig(t *testing.T) {
	cfg := StrikesConfig{N: 1, M: 1, Budget: 60 * time.Millisecond, RTT: 20 * time.Millisecond}
	sched := sim.NewScheduler(1)
	p := strikesPair(sched, 10*time.Millisecond, cfg)
	p.a.drop = func(f *wire.Frame) bool { return f.Kind == wire.FData && f.Seq == 1 }
	p.a.proto.Send(dataPacket(1))
	sched.After(10*time.Millisecond, func() { p.a.proto.Send(dataPacket(2)) })
	sched.RunFor(time.Second)
	st := p.b.proto.Stats()
	if st.Requests != 1 {
		t.Fatalf("requests = %d, want exactly 1", st.Requests)
	}
	if got := p.a.proto.Stats().Retransmissions; got != 1 {
		t.Fatalf("retransmissions = %d, want exactly 1", got)
	}
}

func TestStrikesOverheadMatchesAnalytic(t *testing.T) {
	// §IV-A: sender-side cost is 1 + M·p. With p = 0.1 and M = 2 the
	// transmission overhead must be ≈ 1.2.
	sched := sim.NewScheduler(99)
	cfg := StrikesConfig{N: 3, M: 2, Budget: 160 * time.Millisecond, RTT: 20 * time.Millisecond}
	p := strikesPair(sched, 10*time.Millisecond, cfg)
	r := rand.New(rand.NewSource(5))
	const lossP = 0.10
	p.a.drop = func(f *wire.Frame) bool {
		return f.Kind == wire.FData && r.Float64() < lossP
	}
	const n = 5000
	for i := uint32(1); i <= n; i++ {
		i := i
		sched.After(time.Duration(i-1)*time.Millisecond, func() {
			p.a.proto.Send(dataPacket(i))
		})
	}
	sched.RunFor(time.Minute)
	st := p.a.proto.Stats()
	overhead := float64(st.DataSent+st.Retransmissions) / float64(n)
	want := 1 + float64(cfg.M)*lossP
	if overhead < 1.02 || overhead > want+0.08 {
		t.Fatalf("overhead = %.3f, want in (1.02, %.3f]", overhead, want+0.08)
	}
	// Nearly everything must be delivered despite pure timeliness goals.
	if got := float64(p.b.proto.Stats().Delivered) / n; got < 0.995 {
		t.Fatalf("delivery ratio %.4f, want >= 0.995", got)
	}
}

func TestStrikesHistoryEviction(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := StrikesConfig{N: 1, M: 1, Budget: 100 * time.Millisecond, RTT: 20 * time.Millisecond, HistoryLimit: 10}
	p := strikesPair(sched, 10*time.Millisecond, cfg)
	for i := uint32(1); i <= 50; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	s, ok := p.a.proto.(*Strikes)
	if !ok {
		t.Fatal("not a Strikes")
	}
	if got := s.history.Len(); got != 10 {
		t.Fatalf("history = %d entries, want 10", got)
	}
	// A request for an evicted sequence is ignored.
	s.HandleFrame(&wire.Frame{Proto: wire.LPRealTime, Kind: wire.FReq, Seq: 1})
	sched.RunFor(time.Second)
	if got := p.a.proto.Stats().Retransmissions; got != 0 {
		t.Fatalf("retransmitted evicted seq: %d", got)
	}
}

func TestStrikesCloseCancelsTimers(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := StrikesConfig{N: 5, M: 3, Budget: time.Second, RTT: 20 * time.Millisecond}
	p := strikesPair(sched, 10*time.Millisecond, cfg)
	p.a.drop = func(f *wire.Frame) bool { return f.Kind == wire.FData && f.Seq == 1 }
	p.a.proto.Send(dataPacket(1))
	sched.After(10*time.Millisecond, func() { p.a.proto.Send(dataPacket(2)) })
	sched.After(40*time.Millisecond, func() {
		p.a.proto.Close()
		p.b.proto.Close()
	})
	reqsAtClose := uint64(0)
	sched.After(41*time.Millisecond, func() { reqsAtClose = p.b.proto.Stats().Requests })
	sched.RunFor(5 * time.Second)
	if got := p.b.proto.Stats().Requests; got != reqsAtClose {
		t.Fatalf("requests kept firing after Close: %d → %d", reqsAtClose, got)
	}
}

// TestStrikesGapScanClamped pins the event-loop DoS fix on the strikes
// receiver: a data frame whose sequence jumps far ahead inside the window
// (corruption, or a peer restarting its sequence space) queues at most
// maxGapScan gaps instead of spinning for tens of thousands, and the clamp
// is counted.
func TestStrikesGapScanClamped(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := strikesPair(sched, time.Millisecond, continentalStrikes())
	s := p.b.proto.(*Strikes)
	s.HandleFrame(&wire.Frame{
		Proto:  wire.LPRealTime,
		Kind:   wire.FData,
		Seq:    60000,
		Packet: dataPacket(1),
	})
	if got := s.Stats().GapScanClamps; got != 1 {
		t.Fatalf("GapScanClamps = %d, want 1", got)
	}
	if n := s.gaps.Len(); n != maxGapScan {
		t.Fatalf("%d gaps queued after a jump of 60 000, want %d", n, maxGapScan)
	}
	// A small genuine gap on a sane sequence is not counted.
	sane := strikesPair(sched, time.Millisecond, continentalStrikes())
	sb := sane.b.proto.(*Strikes)
	sb.HandleFrame(&wire.Frame{Proto: wire.LPRealTime, Kind: wire.FData, Seq: 3, Packet: dataPacket(3)})
	if got := sb.Stats().GapScanClamps; got != 0 {
		t.Fatalf("sane gap counted %d clamps", got)
	}
	if n := sb.gaps.Len(); n != 2 {
		t.Fatalf("%d gaps queued for {1,2}, want 2", n)
	}
}

// TestStrikesSurvivesSequenceWraparound pushes the real-time protocol
// across the 2^32 boundary under loss: gap discovery must keep working in
// serial arithmetic.
func TestStrikesSurvivesSequenceWraparound(t *testing.T) {
	sched := sim.NewScheduler(9)
	p := strikesPair(sched, 20*time.Millisecond, continentalStrikes())
	edge := ^uint32(0) - 29
	sa := p.a.proto.(*Strikes)
	sb := p.b.proto.(*Strikes)
	sa.nextSeq = edge
	fastForward(sb.recvWin, sb.gaps, edge)
	dropped := 0
	p.a.drop = func(f *wire.Frame) bool {
		// Lose two data frames straddling the wrap exactly once each.
		if f.Kind == wire.FData && (f.Seq == 0xffffffff || f.Seq == 1) && dropped < 2 {
			dropped++
			return true
		}
		return false
	}
	const n = 60
	for i := uint32(1); i <= n; i++ {
		p.a.proto.Send(dataPacket(i))
		sched.RunFor(5 * time.Millisecond)
	}
	sched.RunFor(2 * time.Second)
	if len(p.b.delivered) != n {
		t.Fatalf("delivered %d of %d across wraparound", len(p.b.delivered), n)
	}
	if sb.recvWin.Cum() != edge+n {
		t.Fatalf("receiver cum = %#x, want %#x", sb.recvWin.Cum(), edge+n)
	}
}

// TestStrikesWindowSurvivesPermanentLoss loses one sequence for good, every
// copy of it, and streams on for more than the receive window's 2^16
// sequences. The receiver gives the gap up Budget after it found it, and
// giving up records the sequence, so the window's edge moves past it:
// every later frame is delivered and the edge reaches the last one.
func TestStrikesWindowSurvivesPermanentLoss(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := strikesPair(sched, time.Millisecond, StrikesConfig{})
	p.a.drop = func(f *wire.Frame) bool { return f.Kind == wire.FData && f.Seq == 2 }
	sb := p.b.proto.(*Strikes)
	const n, batch = 1<<16 + 2000, 1000
	sent := 0
	for sent < n {
		k := min(batch, n-sent)
		for i := 0; i < k; i++ {
			p.a.proto.Send(dataPacket(uint32(sent + i + 1)))
		}
		sched.RunFor(10 * time.Millisecond)
		want := k
		if sent == 0 {
			want-- // seq 2
		}
		if len(p.b.delivered) != want {
			t.Fatalf("frames %d–%d: %d delivered, want %d (edge %d)", sent+1, sent+k, len(p.b.delivered), want, sb.recvWin.Cum())
		}
		p.b.delivered = p.b.delivered[:0]
		sent += k
	}
	if got := sb.recvWin.Cum(); got != n {
		t.Fatalf("cumulative edge %d, want the last sequence %d", got, n)
	}
}

// TestStrikesWindowSurvivesLongOutage loses every copy of frames 2–2001,
// an outage longer than maxGapScan frames, and streams on for more than
// the receive window's 2^16 sequences. The arrival after the outage queues
// the newest maxGapScan gaps and gives the older ones up at once, so every
// sequence of the outage is given up within Budget and every later frame
// is delivered. When the older ones were never queued, nothing ever
// recorded them: the edge stopped below them for good, and the window
// refused every frame from 2^16 past it on.
func TestStrikesWindowSurvivesLongOutage(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := strikesPair(sched, time.Millisecond, StrikesConfig{})
	const outage = 2000
	p.a.drop = func(f *wire.Frame) bool { return f.Kind == wire.FData && f.Seq >= 2 && f.Seq <= 1+outage }
	sb := p.b.proto.(*Strikes)
	const n, batch = 70_000, 1000 // past 2^16 beyond the outage
	for sent := 0; sent < n; sent += batch {
		for i := 1; i <= batch; i++ {
			p.a.proto.Send(dataPacket(uint32(sent + i)))
		}
		sched.RunFor(10 * time.Millisecond)
	}
	sched.RunFor(time.Second)
	if got, want := len(p.b.delivered), n-outage; got != want {
		t.Fatalf("%d of %d frames delivered (edge %d)", got, want, sb.recvWin.Cum())
	}
	if got := sb.recvWin.Cum(); got != n {
		t.Fatalf("cumulative edge %d, want the last sequence %d", got, n)
	}
	if st := sb.Stats(); st.GapScanClamps != 1 || st.Requests != uint64(maxGapScan*sb.cfg.N) {
		t.Fatalf("%d clamps and %d requests, want 1 and %d: the newest %d gaps requested, the rest given up",
			st.GapScanClamps, st.Requests, maxGapScan*sb.cfg.N, maxGapScan)
	}
}

// TestStrikesCopyAfterGiveUpIsDuplicate pins what giving up costs: a copy
// that arrives once the budget since the gap was found has passed finds
// the sequence recorded, so it counts as a duplicate and is not delivered;
// one that arrives before is delivered.
func TestStrikesCopyAfterGiveUpIsDuplicate(t *testing.T) {
	cfg := StrikesConfig{}.withDefaults()
	for _, tc := range []struct {
		after     time.Duration
		delivered bool
	}{
		{cfg.Budget - time.Millisecond, true},
		{cfg.Budget, false},
	} {
		sched := sim.NewScheduler(1)
		s := NewStrikes(&directEnd{clock: sched}, cfg)
		data := func(seq uint32) {
			s.HandleFrame(&wire.Frame{Proto: wire.LPRealTime, Kind: wire.FData, Seq: seq, Packet: dataPacket(seq)})
		}
		data(1)
		data(3) // gap 2 found now
		sched.RunFor(tc.after)
		data(2)
		st := s.Stats()
		if delivered := st.Delivered == 3; delivered != tc.delivered || st.DuplicatesDropped != uint64(3-st.Delivered) {
			t.Fatalf("copy %v after the gap was found: %d delivered, %d duplicates", tc.after, st.Delivered, st.DuplicatesDropped)
		}
		if got := s.recvWin.Cum(); got != 3 {
			t.Fatalf("copy %v after the gap was found: edge %d, want 3", tc.after, got)
		}
	}
}

// TestStrikesRefusedFrameLeavesHighMark sends one frame far past the
// receive window, which the window refuses, then a normal stream with one
// loss. The refused frame must not raise the mark above which arrivals
// reveal gaps: if it did, no gap below it would ever be requested.
func TestStrikesRefusedFrameLeavesHighMark(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := strikesPair(sched, time.Millisecond, StrikesConfig{})
	sb := p.b.proto.(*Strikes)
	sb.HandleFrame(&wire.Frame{Proto: wire.LPRealTime, Kind: wire.FData, Seq: sb.recvWin.Cum() + 1<<20, Packet: dataPacket(0)})
	if st := sb.Stats(); st.Delivered != 0 || st.DuplicatesDropped != 1 {
		t.Fatalf("a frame 2^20 past the edge: %+v, want it refused", st)
	}
	sched.RunFor(time.Second) // past any budget the frame could have started
	dropped := false
	p.a.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FData && f.Seq == 1500 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	const n = 2000
	for i := uint32(1); i <= n; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.RunFor(time.Second)
	if len(p.b.delivered) != n || sb.Stats().Requests == 0 {
		t.Fatalf("%d of %d delivered after %d requests, want the loss recovered", len(p.b.delivered), n, sb.Stats().Requests)
	}
}
