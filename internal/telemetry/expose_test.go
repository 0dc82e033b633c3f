package telemetry

import (
	"strings"
	"testing"
)

func TestTextExposerLines(t *testing.T) {
	camp := NewCampaign()
	f := NewFlow()
	f.Kernel.Events = 100
	f.TCP.Flows = 1
	f.TCP.DataSent = 42
	camp.AddFlow(f)

	var b strings.Builder
	e := NewTextExposer(&b, "svc_")
	e.Comment("campaign totals")
	e.Int("queue_depth", 3)
	e.Float("virtual_per_wall", 2.5)
	e.Campaign(camp)
	e.Counters(&Cache{Hits: 7, Misses: 2, Dedups: 1, Evictions: 4})
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# campaign totals\n",
		"svc_queue_depth 3\n",
		"svc_virtual_per_wall 2.5\n",
		"svc_campaign_flows_total 1\n",
		"svc_kernel_events_total 100\n",
		"svc_tcp_data_sent_total 42\n",
		"svc_cache_hits_total 7\n",
		"svc_cache_dedups_total 1\n",
		"svc_cache_evictions_total 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Identical state must scrape byte-identically.
	var b2 strings.Builder
	e2 := NewTextExposer(&b2, "svc_")
	e2.Comment("campaign totals")
	e2.Int("queue_depth", 3)
	e2.Float("virtual_per_wall", 2.5)
	e2.Campaign(camp)
	e2.Counters(&Cache{Hits: 7, Misses: 2, Dedups: 1, Evictions: 4})
	if err := e2.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if b2.String() != out {
		t.Error("two scrapes of identical state differ")
	}
}

func TestTextExposerBuildInfoAndDist(t *testing.T) {
	var d Dist
	d.Add(2)
	d.Add(10)
	d.Add(6)

	var b strings.Builder
	e := NewTextExposer(&b, "svc_")
	e.BuildInfo("v1.2.3")
	e.IntLabeled("workers", 4, "role", "coordinator", "zone", "a")
	e.Dist("job_queue_wait_ms", &d)
	var empty Dist
	e.Dist("unit_duration_ms", &empty)
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`svc_build_info{version="v1.2.3"} 1` + "\n",
		`svc_workers{role="coordinator",zone="a"} 4` + "\n",
		"svc_job_queue_wait_ms_count 3\n",
		"svc_job_queue_wait_ms_sum 18\n",
		"svc_job_queue_wait_ms_min 2\n",
		"svc_job_queue_wait_ms_max 10\n",
		"svc_unit_duration_ms_count 0\n",
		"svc_unit_duration_ms_sum 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// An empty distribution must not leak NaN min/max lines.
	if strings.Contains(out, "unit_duration_ms_min") || strings.Contains(out, "NaN") {
		t.Errorf("empty distribution leaked min/max or NaN:\n%s", out)
	}

	// A JSON round trip (how reports carry distributions) must expose the
	// same count/sum the live accumulator did.
	var b2 strings.Builder
	raw, err := d.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal dist: %v", err)
	}
	var parsed Dist
	if err := parsed.UnmarshalJSON(raw); err != nil {
		t.Fatalf("unmarshal dist: %v", err)
	}
	e2 := NewTextExposer(&b2, "svc_")
	e2.Dist("job_queue_wait_ms", &parsed)
	if err := e2.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for _, want := range []string{
		"svc_job_queue_wait_ms_count 3\n",
		"svc_job_queue_wait_ms_sum 18\n",
	} {
		if !strings.Contains(b2.String(), want) {
			t.Errorf("parsed-dist exposition missing %q:\n%s", want, b2.String())
		}
	}
}

func TestCampaignMerge(t *testing.T) {
	a, b := NewCampaign(), NewCampaign()
	for i := 0; i < 3; i++ {
		f := NewFlow()
		f.Kernel.Events = int64(10 * (i + 1))
		f.TCP.Flows = 1
		f.TCP.Cwnd.Add(float64(i + 1))
		f.TCP.CwndHist.Add(float64(i + 1))
		if i < 2 {
			a.AddFlow(f)
		} else {
			b.AddFlow(f)
		}
	}
	a.Merge(b)
	s := a.Snapshot()
	flows, k, tc := s.FlowCount, s.Kernel, s.TCP
	if flows != 3 || k.Events != 60 || tc.Flows != 3 {
		t.Errorf("merged totals: flows=%d events=%d tcpflows=%d", flows, k.Events, tc.Flows)
	}
	if tc.Cwnd.N() != 3 {
		t.Errorf("merged cwnd samples = %d, want 3", tc.Cwnd.N())
	}
	if got := tc.CwndHist.Total(); got != 3 {
		t.Errorf("merged cwnd hist total = %d, want 3", got)
	}
	// Merging nil and self are no-ops.
	a.Merge(nil)
	a.Merge(a)
	if flows2 := a.Snapshot().FlowCount; flows2 != 3 {
		t.Errorf("self/nil merge changed totals: %d", flows2)
	}
}
