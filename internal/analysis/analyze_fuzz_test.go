package analysis

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// causalStream decodes fuzz bytes into a causal packet-event stream, the
// contract Analyze is exact under: time never goes backwards, no
// (seq, transmit#) pair is sent twice, and a transmission arrives or is
// dropped at most once and only after it was sent. Each byte pair is one
// step: the first byte picks the action, the second parameterizes it.
func causalStream(data []byte) *trace.FlowTrace {
	var (
		now      time.Duration
		lastTx   []int   // highest transmit number per sent seq
		inFlight []txKey // sent, neither arrived nor dropped yet
		backoff  int
		evs      []trace.Event
	)
	add := func(ev trace.Event) { evs = append(evs, ev) }
	// take removes and returns the in-flight transmission arg selects.
	take := func(arg byte) txKey {
		j := int(arg) % len(inFlight)
		k := inFlight[j]
		inFlight = append(inFlight[:j], inFlight[j+1:]...)
		return k
	}
	send := func(seq int64, arg byte) {
		add(trace.Event{At: now, Type: trace.EvDataSend, Seq: seq, Ack: -1,
			TransmitNo: lastTx[seq], Cwnd: float64(arg%40) + 1})
		inFlight = append(inFlight, txKey{seq, lastTx[seq]})
	}
	next := func() int64 { return int64(len(lastTx)) }
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 10 {
		case 0: // advance the clock; 0 keeps the timestamp for same-instant events
			now += time.Duration(arg%16) * time.Millisecond
		case 1: // first transmission of a new segment
			lastTx = append(lastTx, 1)
			send(next()-1, arg)
		case 2: // retransmission of an earlier segment
			if next() > 0 {
				seq := int64(arg) % next()
				lastTx[seq]++
				send(seq, arg)
			}
		case 3: // arrival of an in-flight transmission
			if len(inFlight) > 0 {
				k := take(arg)
				add(trace.Event{At: now, Type: trace.EvDataRecv, Seq: k.seq, Ack: -1, TransmitNo: k.txNo})
			}
		case 4: // channel drop of an in-flight transmission
			if len(inFlight) > 0 {
				k := take(arg)
				add(trace.Event{At: now, Type: trace.EvDataDrop, Seq: k.seq, Ack: -1, TransmitNo: k.txNo})
			}
		case 5: // cumulative ACK emitted, received or dropped
			ack := int64(arg>>2) % (next() + 1)
			typ := [...]trace.EventType{trace.EvAckSend, trace.EvAckRecv, trace.EvAckDrop, trace.EvAckRecv}[arg&3]
			add(trace.Event{At: now, Type: typ, Seq: -1, Ack: ack})
		case 6, 7: // retransmission timeout, backing off on each one of a chain
			if next() > 0 {
				add(trace.Event{At: now, Type: trace.EvTimeout, Seq: int64(arg) % next(), Ack: -1, Backoff: backoff})
				backoff++
			}
		case 8: // the sender leaves timeout recovery
			add(trace.Event{At: now, Type: trace.EvRecovered, Seq: -1, Ack: int64(arg) % (next() + 1)})
			backoff = 0
		case 9: // fast retransmit
			add(trace.Event{At: now, Type: trace.EvFastRetx, Seq: -1, Ack: int64(arg) % (next() + 1)})
		}
	}
	// The horizon lands anywhere from before the last event to well after it,
	// so recovery phases still open at the end are clamped both ways.
	dur := time.Second
	if len(data) > 0 {
		dur = now * time.Duration(data[len(data)-1]%4) / 2
	}
	return &trace.FlowTrace{
		Meta:   trace.FlowMeta{ID: "fuzz", MSS: 1000, Duration: dur},
		Events: evs,
	}
}

// FuzzAnalyzeDifferential requires Analyze (a replay through Incremental)
// to equal the two-pass reference analyzer on every causal stream.
func FuzzAnalyzeDifferential(f *testing.F) {
	f.Add([]byte{})
	// send, arrive, ACK round trip; then a lost segment, a timeout chain
	// with backoff, a retransmission that arrives, recovery.
	f.Add([]byte{
		1, 3, 0, 5, 3, 0, 5, 4, 0, 5, 5, 5,
		1, 7, 4, 0, 0, 9, 6, 1, 2, 1, 0, 9, 7, 1, 2, 1, 3, 1, 0, 3, 5, 9, 8, 2,
	})
	// Spurious timeout: the original arrives at the timeout's own instant,
	// after the timeout event.
	f.Add([]byte{1, 0, 0, 9, 6, 0, 3, 0, 2, 0, 0, 4, 3, 0, 8, 1, 0, 7})
	// Fast retransmits, ACK drops and a phase left open at the horizon.
	f.Add([]byte{1, 1, 1, 2, 1, 3, 4, 1, 9, 0, 2, 1, 5, 6, 5, 7, 0, 3, 6, 2, 3, 0, 3, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ft := causalStream(data)
		want, wantErr := referenceAnalyze(ft)
		got, err := Analyze(ft)
		if wantErr != nil || err != nil {
			t.Fatalf("causal stream rejected: reference %v, Analyze %v", wantErr, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Analyze diverged from the reference on %d events:\nreference: %+v\nAnalyze:   %+v\nevents: %+v",
				len(ft.Events), want, got, ft.Events)
		}
	})
}

// TestAnalyzeNonCausalRetransmission pins what Analyze returns for a trace
// that passes Validate but breaks the causal-stream contract: the
// retransmission inside the recovery phase arrives before it is sent. Only
// a hand-made trace (e.g. through traceanalyze) can look like this. The
// streaming replay counts the retransmission lost, because its arrival was
// consumed before the send it would refund; the reference analyzer's
// whole-trace lookup counts it delivered.
func TestAnalyzeNonCausalRetransmission(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	ft := &trace.FlowTrace{
		Meta: trace.FlowMeta{ID: "noncausal", MSS: 1000, Duration: time.Second},
		Events: []trace.Event{
			{At: ms(0), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 1, Cwnd: 1},
			{At: ms(0), Type: trace.EvDataDrop, Seq: 0, Ack: -1, TransmitNo: 1},
			{At: ms(300), Type: trace.EvTimeout, Seq: 0, Ack: -1},
			{At: ms(320), Type: trace.EvDataRecv, Seq: 0, Ack: -1, TransmitNo: 2},
			{At: ms(330), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 2, Cwnd: 1},
			{At: ms(340), Type: trace.EvAckSend, Seq: -1, Ack: 1},
			{At: ms(370), Type: trace.EvAckRecv, Seq: -1, Ack: 1},
			{At: ms(370), Type: trace.EvRecovered, Seq: -1, Ack: 1},
		},
	}
	m, err := Analyze(ft)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Recoveries) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(m.Recoveries))
	}
	ph := m.Recoveries[0]
	if ph.Retransmissions != 1 || ph.RetransmissionsLost != 1 || m.RecoveryLossRate != 1 {
		t.Errorf("phase %+v, q = %v: want the early-arriving retransmission counted lost (q = 1)", ph, m.RecoveryLossRate)
	}
	if ph.Spurious {
		t.Error("phase classified spurious, but seq 0 had not arrived by the timeout")
	}
	if m.UniqueDelivered != 1 {
		t.Errorf("UniqueDelivered = %d, want 1", m.UniqueDelivered)
	}

	ref, err := referenceAnalyze(ft)
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.Recoveries[0].RetransmissionsLost; got != 0 {
		t.Errorf("reference counts %d lost retransmissions, want 0 (whole-trace lookup)", got)
	}
}
