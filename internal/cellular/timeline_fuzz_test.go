package cellular

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/railway"
)

// FuzzChannelTimeline is the differential target for the compiled timeline:
// it builds a channel from fuzzed parameters, optionally injects fuzzed
// outages mid-stream, and drives the cursor-backed lookups with a mixed
// monotone/out-of-order query schedule, asserting every answer is
// bit-identical (exact float64 equality, not approximate) to the legacy
// span-based methods. Run in CI's fuzz smoke step.
func FuzzChannelTimeline(f *testing.F) {
	f.Add(int64(1), uint16(60), uint32(0), false, uint64(0x9e3779b97f4a7c15))
	f.Add(int64(7), uint16(300), uint32(90), true, uint64(0xdeadbeefcafef00d))
	f.Add(int64(42), uint16(600), uint32(2400), false, uint64(3))
	f.Add(int64(-5), uint16(45), uint32(0), true, uint64(1<<63))

	f.Fuzz(func(t *testing.T, seed int64, horizonSec uint16, offsetSec uint32, stationary bool, qseed uint64) {
		profile := railway.DefaultProfile
		if stationary {
			profile = railway.StationaryProfile
		}
		trip, err := railway.NewTrip(railway.BeijingTianjin, profile)
		if err != nil {
			t.Fatalf("NewTrip: %v", err)
		}
		horizon := time.Duration(horizonSec%1800+1) * time.Second
		offset := time.Duration(offsetSec%3600) * time.Second
		ops := Operators()
		op := ops[int(uint64(seed)%uint64(len(ops)))]
		ch, err := NewChannel(op, trip, offset, horizon, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("NewChannel: %v", err)
		}

		qrng := rand.New(rand.NewSource(int64(qseed)))
		data := ch.DataLossCursor()
		ack := ch.AckLossCursor()
		delay := ch.DelayCursor()

		span := int64(horizon) + int64(time.Minute)
		sent := time.Duration(0)
		check := func(sent, arrival time.Duration) {
			if got, want := data(sent, arrival), ch.DataTransitProb(sent, arrival); got != want {
				t.Fatalf("data(%v,%v): cursor %v != legacy %v", sent, arrival, got, want)
			}
			if got, want := ack(sent, arrival), ch.AckTransitProb(sent, arrival); got != want {
				t.Fatalf("ack(%v): cursor %v != legacy %v", sent, got, want)
			}
			if got, want := delay(sent), ch.ExtraDelay(sent); got != want {
				t.Fatalf("delay(%v): cursor %v != legacy %v", sent, got, want)
			}
			if got, want := ch.TimelineAt(sent), legacyPointF(ch, sent); got != want {
				t.Fatalf("TimelineAt(%v) = %+v, legacy %+v", sent, got, want)
			}
		}
		for i := 0; i < 600; i++ {
			switch qrng.Intn(10) {
			case 0: // out-of-order jump anywhere, including before the cursor
				at := time.Duration(qrng.Int63n(span))
				check(at, at+time.Duration(qrng.Int63n(int64(time.Second))))
			case 1: // recompile mid-stream: cursors must re-sync
				start := time.Duration(qrng.Int63n(span))
				ch.AddOutages([]Outage{{Start: start, End: start + time.Duration(qrng.Int63n(int64(3*time.Second))+1)}})
				check(sent, sent)
			default: // the packet path: nondecreasing sends, jittered arrivals
				sent += time.Duration(qrng.Int63n(int64(80 * time.Millisecond)))
				arrival := sent + time.Duration(qrng.Int63n(int64(400*time.Millisecond))) - 150*time.Millisecond
				check(sent, arrival)
			}
		}
	})
}

// legacyPointF mirrors legacyPoint for the fuzz target (kept separate so
// the fuzz file stands alone when run with -run xxx -fuzz).
func legacyPointF(c *Channel, at time.Duration) TimelinePoint {
	return TimelinePoint{
		InHandoff:    c.InHandoff(at),
		InGap:        c.InGap(at),
		DataLossProb: c.DataLossProb(at),
		AckLossProb:  c.AckLossProb(at),
		ExtraDelay:   c.ExtraDelay(at),
	}
}

// The span oracle: the original span-based channel queries the compiled
// timeline and its cursors must match bit for bit. Production code answers
// every query through the timeline; these evaluate the handoff and gap span
// lists directly.

// InHandoff reports whether flow time t falls inside a handoff outage.
func (c *Channel) InHandoff(t time.Duration) bool { return inSpans(c.handoffs, t) }

// InGap reports whether flow time t falls inside a coverage gap.
func (c *Channel) InGap(t time.Duration) bool { return inSpans(c.gaps, t) }

// HandoffCount returns the number of handoffs within the precomputed horizon.
func (c *Channel) HandoffCount() int { return len(c.handoffs) }

// DataLossProb returns the downlink (data) loss probability for a packet
// whose whole transit happens at flow time t. It is the single-epoch view
// of DataTransitProb, kept for channel inspection and plotting.
func (c *Channel) DataLossProb(t time.Duration) float64 {
	return c.DataTransitProb(t, t)
}

// DataTransitProb returns the downlink loss probability for a packet sent
// at flow time sent and arriving at flow time arrival. A packet sent while
// the bearer is down is a retransmission probe and faces HandoffProbeLoss;
// one that was already in flight and arrives into the outage faces
// HandoffDataLoss (partial flush of the old cell's queue).
func (c *Channel) DataTransitProb(sent, arrival time.Duration) float64 {
	p := c.op.BaseDataLoss + c.op.SpeedDataLoss*c.speedFraction(sent)
	switch {
	case c.InHandoff(sent):
		p += c.op.HandoffProbeLoss
	case c.InHandoff(arrival):
		p += c.op.HandoffDataLoss
	}
	if c.InGap(sent) {
		p += c.op.GapLoss
	}
	return clampProb(p)
}

// AckLossProb returns the uplink (ACK) loss probability at flow time t —
// the single-epoch view of AckTransitProb.
func (c *Channel) AckLossProb(t time.Duration) float64 {
	return c.AckTransitProb(t, t)
}

// AckTransitProb returns the uplink loss probability for an ACK sent at
// flow time sent. The radio segment sits at the start of an ACK's journey
// (the phone), so only the sent epoch matters.
func (c *Channel) AckTransitProb(sent, _ time.Duration) float64 {
	p := c.op.BaseAckLoss + c.op.SpeedAckLoss*c.speedFraction(sent)
	if c.InHandoff(sent) {
		p += c.op.HandoffAckLoss
	}
	if c.InGap(sent) {
		p += c.op.GapLoss
	}
	return clampProb(p)
}

// ExtraDelay returns the one-way delay inflation at flow time t. During a
// handoff the radio bearer is interrupted and the link layer buffers
// traffic: a packet entering the link mid-outage is held until the outage
// ends (plus the handoff signalling cost). This buffering is what turns
// handoffs into spurious retransmission timeouts — the original packets are
// not lost, they arrive after the sender's RTO has already fired.
func (c *Channel) ExtraDelay(t time.Duration) time.Duration {
	if rem := c.handoffRemaining(t); rem > 0 {
		return rem + c.op.HandoffDelay
	}
	return 0
}

// handoffRemaining returns how much of the surrounding handoff outage is
// left at flow time t, or 0 when t is outside any outage.
func (c *Channel) handoffRemaining(t time.Duration) time.Duration {
	if i := spanBefore(c.handoffs, t); i >= 0 && c.handoffs[i].contains(t) {
		return c.handoffs[i].end - t
	}
	return 0
}

// TimelinePoint is the channel state at one instant, as answered by the
// compiled timeline. DataLossProb/AckLossProb take the single-epoch view
// (sent == arrival), matching Channel.DataLossProb/AckLossProb.
type TimelinePoint struct {
	InHandoff    bool
	InGap        bool
	DataLossProb float64
	AckLossProb  float64
	ExtraDelay   time.Duration
}

// TimelineAt answers the channel state at flow time t from the compiled
// timeline with a stateless binary search (no cursor). It is the
// inspection/verification surface: TimelineAt(t) must agree exactly with
// the legacy span-based InHandoff/InGap/DataLossProb/AckLossProb/ExtraDelay
// for every t, which the property and fuzz tests assert.
func (c *Channel) TimelineAt(t time.Duration) TimelinePoint {
	cur := tlCursor{c: c, gen: c.gen}
	s := cur.seg(t)
	return TimelinePoint{
		InHandoff:    s.inHandoff && t >= 0,
		InGap:        s.inGap && t >= 0,
		DataLossProb: c.dataProbAt(s, t, func() *tlSeg { return s }),
		AckLossProb:  c.ackProbAt(s, t),
		ExtraDelay:   c.extraDelayAt(s, t),
	}
}

// TimelineSegments returns the number of segments in the compiled timeline.
func (c *Channel) TimelineSegments() int { return len(c.timeline) }
