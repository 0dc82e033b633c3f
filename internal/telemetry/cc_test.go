package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// ccStats builds a populated per-variant entry for the tests.
func ccStats(scale int64) *CCStats {
	s := &CCStats{
		Flows:           scale,
		DataSent:        10 * scale,
		Retransmissions: 2 * scale,
		UniqueDelivered: 8 * scale,
		Timeouts:        scale,
		FastRetransmits: scale,
		RecoveryPhases:  scale,
		CwndHist:        NewHist(1, 2, 4, 8),
	}
	for i := int64(0); i < scale; i++ {
		s.CwndHist.Add(float64(1 + i%8))
	}
	return s
}

// mergeTCP folds src into dst through the TCP section's field table.
func mergeTCP(dst, src *TCP) {
	schemaOf(reflect.TypeOf(TCP{}), "tcp").merge(elem(dst), elem(src))
}

func TestTCPByCCMergeExactAndCommutative(t *testing.T) {
	mk := func() (TCP, TCP) {
		var a, b TCP
		a.ByCC = map[string]*CCStats{"reno": ccStats(3), "cubic": ccStats(5)}
		b.ByCC = map[string]*CCStats{"cubic": ccStats(7), "bbr": ccStats(2)}
		return a, b
	}
	ab, x := mk()
	mergeTCP(&ab, &x)
	y, ba := mk()
	mergeTCP(&ba, &y)
	if !reflect.DeepEqual(ab.ByCC, ba.ByCC) {
		t.Fatalf("ByCC merge is not commutative:\nab: %+v\nba: %+v", ab.ByCC, ba.ByCC)
	}
	cubic := ab.ByCC["cubic"]
	if cubic.Flows != 12 || cubic.DataSent != 120 {
		t.Fatalf("cubic merged wrong: %+v", cubic)
	}
	if got := cubic.CwndHist.Total(); got != 12 {
		t.Fatalf("cubic hist total = %d, want 12", got)
	}
	if len(ab.ByCC) != 3 {
		t.Fatalf("merged ByCC has %d variants, want 3", len(ab.ByCC))
	}
}

func TestTCPByCCMergeDoesNotAliasSource(t *testing.T) {
	var dst, src TCP
	src.ByCC = map[string]*CCStats{"reno": ccStats(1)}
	mergeTCP(&dst, &src)
	dst.ByCC["reno"].Flows += 100
	dst.CC("newreno").Flows++
	if src.ByCC["reno"].Flows != 1 {
		t.Fatal("merge aliased the source CCStats")
	}
	if _, leaked := src.ByCC["newreno"]; leaked {
		t.Fatal("merge aliased the source map")
	}
}

func TestCampaignCountersCloneByCC(t *testing.T) {
	camp := NewCampaign()
	fl := NewFlow()
	fl.TCP.CC("bbr").Flows = 1
	fl.TCP.CC("bbr").DataSent = 42
	camp.AddFlow(fl)
	tc := camp.Snapshot().TCP
	tc.ByCC["bbr"].DataSent = 0
	tc.CC("reno")
	tc2 := camp.Snapshot().TCP
	if tc2.ByCC["bbr"].DataSent != 42 {
		t.Fatal("Counters returned an aliased ByCC map")
	}
	if _, leaked := tc2.ByCC["reno"]; leaked {
		t.Fatal("mutating a Counters snapshot leaked into the campaign")
	}
}

func TestExposerEmitsPerCCLines(t *testing.T) {
	camp := NewCampaign()
	fl := NewFlow()
	fl.TCP.CC("cubic").Flows = 1
	fl.TCP.CC("cubic").Retransmissions = 9
	fl.TCP.CC("bbr").Flows = 2
	camp.AddFlow(fl)
	var buf bytes.Buffer
	e := NewTextExposer(&buf, "hsr_")
	e.Campaign(camp)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`hsr_tcp_cc_flows_total{cc="cubic"} 1`,
		`hsr_tcp_cc_retransmissions_total{cc="cubic"} 9`,
		`hsr_tcp_cc_flows_total{cc="bbr"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Sorted by variant name: bbr lines precede cubic lines.
	if strings.Index(out, `cc="bbr"`) > strings.Index(out, `cc="cubic"`) {
		t.Error("per-CC lines not sorted by variant name")
	}
}

func TestReportCCRoundTrip(t *testing.T) {
	r := &Report{
		Tool: "test", Seed: 1,
		CC: &CCReport{Groups: []CCGroup{{
			Experiment: "fairness", Label: "reno/clean", JainIndex: 0.97,
			Flows: []CCFlowResult{{ID: "f0", CC: "reno", ThroughputPps: 12.5, Retransmissions: 3}},
		}}},
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := &Report{}
	if err := json.NewDecoder(&buf).Decode(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.CC, got.CC) {
		t.Fatalf("CC section changed through JSON:\nin:  %+v\nout: %+v", r.CC, got.CC)
	}
}
