package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// replayCheck runs the reference batch analyzer, Analyze, and a fresh
// streaming analyzer fed event by event over the same trace, and fails
// unless all three produce identical metrics — or, for invalid traces,
// identical error strings.
func replayCheck(t *testing.T, ft *trace.FlowTrace) {
	t.Helper()
	want, wantErr := referenceAnalyze(ft)
	inc := NewIncremental(ft.Meta)
	for _, ev := range ft.Events {
		inc.Record(ev)
	}
	streamed, streamedErr := inc.Finish()
	analyzed, analyzedErr := Analyze(ft)
	for _, c := range []struct {
		name string
		got  *FlowMetrics
		err  error
	}{{"streaming", streamed, streamedErr}, {"Analyze", analyzed, analyzedErr}} {
		if (wantErr == nil) != (c.err == nil) {
			t.Fatalf("error mismatch: reference %v, %s %v", wantErr, c.name, c.err)
		}
		if wantErr != nil {
			if wantErr.Error() != c.err.Error() {
				t.Fatalf("error text mismatch:\nreference: %v\n%s: %v", wantErr, c.name, c.err)
			}
			continue
		}
		if !reflect.DeepEqual(want, c.got) {
			t.Fatalf("metrics mismatch:\nreference: %+v\n%s: %+v", want, c.name, c.got)
		}
	}
}

func TestIncrementalMatchesBatchHandTrace(t *testing.T) {
	replayCheck(t, handTrace())
}

func TestIncrementalMatchesBatchEmptyTrace(t *testing.T) {
	replayCheck(t, &trace.FlowTrace{
		Meta: trace.FlowMeta{ID: "empty", MSS: 1400, Duration: time.Second},
	})
}

// TestIncrementalMatchesBatchInvalidTraces feeds the analyzers traces that
// decode fine but violate event invariants; the streaming analyzer must
// latch exactly the error an up-front Validate reports.
func TestIncrementalMatchesBatchInvalidTraces(t *testing.T) {
	meta := trace.FlowMeta{ID: "bad", MSS: 1000, Duration: time.Second}
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	cases := map[string][]trace.Event{
		"time going backwards": {
			{At: ms(10), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 1},
			{At: ms(5), Type: trace.EvDataRecv, Seq: 0, Ack: -1, TransmitNo: 1},
		},
		"negative seq": {
			{At: ms(0), Type: trace.EvDataSend, Seq: -3, Ack: -1, TransmitNo: 1},
		},
		"zero transmit number": {
			{At: ms(0), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 0},
		},
		"negative ack": {
			{At: ms(0), Type: trace.EvAckSend, Seq: -1, Ack: -2},
		},
		"invalid mid-stream": {
			{At: ms(0), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 1, Cwnd: 2},
			{At: ms(30), Type: trace.EvDataRecv, Seq: 0, Ack: -1, TransmitNo: 1},
			{At: ms(31), Type: trace.EvAckSend, Seq: -1, Ack: 1},
			{At: ms(40), Type: trace.EvDataSend, Seq: -1, Ack: -1, TransmitNo: 1},
			{At: ms(50), Type: trace.EvDataSend, Seq: 1, Ack: -1, TransmitNo: 1, Cwnd: 2},
		},
	}
	for name, evs := range cases {
		t.Run(name, func(t *testing.T) {
			replayCheck(t, &trace.FlowTrace{Meta: meta, Events: evs})
		})
	}
}

// TestIncrementalMatchesBatchCorpus replays every checked-in hostile input
// under internal/trace/testdata/corpus through the analyzers. Most corpus
// files are rejected by the decoders before any analyzer runs — the test
// then asserts both decode paths agree — and any that do decode must
// analyze identically.
func TestIncrementalMatchesBatchCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "trace", "testdata", "corpus", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("internal/trace/testdata/corpus is empty")
	}
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			var ft *trace.FlowTrace
			var decErr error
			if strings.HasSuffix(p, ".jsonl") {
				ft, decErr = trace.ReadJSONL(bytes.NewReader(data))
			} else {
				ft, decErr = trace.ReadBinary(bytes.NewReader(data))
			}
			if decErr != nil {
				return // hostile at the codec layer; nothing to analyze
			}
			replayCheck(t, ft)
		})
	}
}

// TestIncrementalPoolReuse checks that a pooled analyzer recycled across
// flows is indistinguishable from a fresh one — in particular that the
// delivered table, whose grow path exposes uncleared capacity, carries no
// state over (a resurrected delivered[seq] would misclassify a genuine
// timeout in the next flow as spurious).
func TestIncrementalPoolReuse(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	// First flow delivers seq 4; second flow times out on an undelivered
	// seq 4. Stale delivery state would flip the second flow's phase to
	// spurious.
	second := &trace.FlowTrace{
		Meta: trace.FlowMeta{ID: "second", MSS: 1000, Duration: time.Second},
		Events: []trace.Event{
			{At: ms(0), Type: trace.EvDataSend, Seq: 4, Ack: -1, TransmitNo: 1, Cwnd: 1},
			{At: ms(0), Type: trace.EvDataDrop, Seq: 4, Ack: -1, TransmitNo: 1},
			{At: ms(400), Type: trace.EvTimeout, Seq: 4, Ack: -1},
			{At: ms(400), Type: trace.EvDataSend, Seq: 4, Ack: -1, TransmitNo: 2, Cwnd: 1},
			{At: ms(430), Type: trace.EvDataRecv, Seq: 4, Ack: -1, TransmitNo: 2},
			{At: ms(431), Type: trace.EvAckSend, Seq: -1, Ack: 5},
			{At: ms(461), Type: trace.EvAckRecv, Seq: -1, Ack: 5},
			{At: ms(461), Type: trace.EvRecovered, Seq: -1, Ack: 5},
		},
	}
	want, err := referenceAnalyze(second)
	if err != nil {
		t.Fatal(err)
	}
	if want.SpuriousTimeouts != 0 {
		t.Fatalf("reference SpuriousTimeouts = %d, want 0 (test premise)", want.SpuriousTimeouts)
	}

	first := handTrace() // delivers seq 4, among others
	a := AcquireIncremental(first.Meta)
	for _, ev := range first.Events {
		a.Record(ev)
	}
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	a.Release()

	b := AcquireIncremental(second.Meta)
	for _, ev := range second.Events {
		b.Record(ev)
	}
	got, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reused analyzer diverged from the reference:\nreference: %+v\nreused:    %+v", want, got)
	}
}

// TestSeqTableGrowth pins the shared growth policy of the per-segment
// tables: geometric doubling (amortized O(1) appends) with the slack capped
// at seqTableSlackCap so one sparse high sequence number cannot balloon the
// arena.
func TestSeqTableGrowth(t *testing.T) {
	var s []time.Duration
	s = growNeg(s, 0)
	for i := int64(0); i < 100; i++ {
		s = growNeg(s, i)
	}
	for i, v := range s {
		if v != -1 {
			t.Fatalf("growNeg: s[%d] = %v, want -1", i, v)
		}
	}
	// Doubling from a non-trivial base.
	s = growNeg(s, 150)
	if cap(s) < 200 {
		t.Errorf("growNeg: cap %d after doubling from >=100, want >= 200", cap(s))
	}
	// A sparse jump may not over-allocate past need + slack.
	const sparse = 5_000_000
	s = growNeg(s, sparse)
	if len(s) != sparse+1 {
		t.Fatalf("growNeg: len %d, want %d", len(s), sparse+1)
	}
	if got, max := cap(s), sparse+1+seqTableSlackCap; got > max {
		t.Errorf("growNeg: cap %d after sparse jump, want <= %d", got, max)
	}
	if s[sparse] != -1 || s[sparse-1] != -1 {
		t.Errorf("growNeg: sparse tail not initialized to -1")
	}

	var bl []bool
	bl = growBool(bl, 100)
	bl[100] = true
	bl = growBool(bl, sparse)
	if len(bl) != sparse+1 {
		t.Fatalf("growBool: len %d, want %d", len(bl), sparse+1)
	}
	if got, max := cap(bl), sparse+1+seqTableSlackCap; got > max {
		t.Errorf("growBool: cap %d after sparse jump, want <= %d", got, max)
	}
	if !bl[100] {
		t.Errorf("growBool: lost existing element during growth")
	}
}

// TestIncrementalSparseHighSequence is the regression test for the grow
// policy end to end: a trace whose sequence numbers jump to five million
// must analyze identically to the reference and must not pin more than
// need+slack table capacity in the streaming analyzer.
func TestIncrementalSparseHighSequence(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	const high = 5_000_000
	ft := &trace.FlowTrace{
		Meta: trace.FlowMeta{ID: "sparse", MSS: 1000, Duration: 2 * time.Second},
		Events: []trace.Event{
			{At: ms(0), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 1, Cwnd: 1},
			{At: ms(30), Type: trace.EvDataRecv, Seq: 0, Ack: -1, TransmitNo: 1},
			{At: ms(31), Type: trace.EvAckSend, Seq: -1, Ack: 1},
			{At: ms(61), Type: trace.EvAckRecv, Seq: -1, Ack: 1},
			{At: ms(100), Type: trace.EvDataSend, Seq: high, Ack: -1, TransmitNo: 1, Cwnd: 2},
			{At: ms(130), Type: trace.EvDataRecv, Seq: high, Ack: -1, TransmitNo: 1},
			{At: ms(131), Type: trace.EvAckSend, Seq: -1, Ack: high + 1},
			{At: ms(161), Type: trace.EvAckRecv, Seq: -1, Ack: high + 1},
		},
	}
	replayCheck(t, ft)

	inc := NewIncremental(ft.Meta)
	for _, ev := range ft.Events {
		inc.Record(ev)
	}
	if _, err := inc.Finish(); err != nil {
		t.Fatal(err)
	}
	if got, max := cap(inc.delivered), high+1+seqTableSlackCap; got > max {
		t.Errorf("delivered table cap %d after sparse flow, want <= %d", got, max)
	}
}
