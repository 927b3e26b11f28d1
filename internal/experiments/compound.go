package experiments

import (
	"bytes"
	"time"

	"sonet/internal/metrics"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// CompoundFlow reproduces §V-C: a live video stream is sent to an
// in-network transcoding service (an anycast group with facilities at CHI
// and DAL); the transcoder transforms the stream and multicasts the
// result to CDN delivery sites. When the serving transcoder's data center
// fails, rerouting selects the alternate facility and the transformed
// delivery continues.
func CompoundFlow(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-COMPOUND",
		Title: "Compound flow: stadium → transcoder (anycast) → CDN sites, with transcoder failover",
		PaperClaim: "network conditions and failures may lead to rerouting that can " +
			"include the selection of a transcoding facility at a different location",
		Table: metrics.NewTable("phase", "transcoder", "cdn_deliveries", "gap"),
	}
	s := startLinks(seed, continentalLinks(nil), nil)
	defer s.Stop()

	const (
		transcodeGroup wire.GroupID = 4000
		cdnGroup       wire.GroupID = 4001
		rawPort        wire.Port    = 100
		tvPort         wire.Port    = 200
	)

	// Transcoding facilities at CHI and DAL: each receives raw frames on
	// the transcode group and republishes transformed frames to the CDN
	// group.
	transcoded := func(raw []byte) []byte {
		out := bytes.ToUpper(raw)
		return append(out, []byte("|h264->h265")...)
	}
	servedBy := make(map[wire.NodeID]int)
	for _, site := range []wire.NodeID{CHI, DAL} {
		in := s.listen(site, rawPort)
		in.Join(transcodeGroup)
		outFlow := s.flow(site, session.FlowSpec{
			Group: cdnGroup, DstPort: tvPort, LinkProto: wire.LPRealTime,
		})
		in.OnDeliver(func(d session.Delivery) {
			servedBy[site]++
			_ = outFlow.Send(transcoded(d.Payload))
		})
	}

	// CDN delivery sites subscribe to the transformed stream.
	var deliveries []time.Duration
	var lastPayload []byte
	for _, cdn := range []wire.NodeID{MIA, LAX} {
		c := s.listen(cdn, tvPort)
		c.Join(cdnGroup)
		c.OnDeliver(func(d session.Delivery) {
			deliveries = append(deliveries, s.Now())
			// The payload is lent for the call.
			lastPayload = append(lastPayload[:0], d.Payload...)
		})
	}
	s.Settle()

	// The stadium at NYC anycasts raw frames to the transcoding service:
	// 30 s of video at 100 fps.
	rawFlow := s.flow(NYC, session.FlowSpec{
		Group: transcodeGroup, Anycast: true, DstPort: rawPort,
		LinkProto: wire.LPRealTime,
	})
	s.cbr(10*time.Millisecond, 3000, []byte("frame"), rawFlow)

	// Phase 1: 10 s healthy operation.
	s.RunFor(10 * time.Second)
	phase1 := len(deliveries)
	primary := CHI
	if servedBy[DAL] > servedBy[CHI] {
		primary = DAL
	}
	r.Table.AddRow("healthy", continentalNames[primary], phase1, "-")

	// Phase 2: the serving transcoder's data center fails.
	failAt := s.Now()
	s.failSite(primary)
	s.RunFor(20 * time.Second)
	phase2 := len(deliveries) - phase1
	worst := worstGapFrom(deliveries, failAt)
	alternate := CHI + DAL - primary
	r.Table.AddRow("after site failure", continentalNames[alternate], phase2, worst)

	served2 := servedBy[alternate]
	r.addFinding("primary transcoder %s served %d frames; after its site failed, %s took over with a %.0fms delivery gap",
		continentalNames[primary], servedBy[primary], continentalNames[alternate], ms(worst))
	if len(lastPayload) > 0 {
		r.addFinding("transformed payload verified end-to-end: %q", string(lastPayload))
	}
	r.ShapeHolds = phase1 > 1800 && // ~2 CDN sites × 10s × 100fps, minus latency tail
		served2 > 0 && phase2 > 3000 &&
		worst < 2*time.Second &&
		bytes.Contains(lastPayload, []byte("FRAME|h264->h265"))
	return r
}
