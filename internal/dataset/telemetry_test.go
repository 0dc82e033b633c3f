package dataset

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestTelemetryDoesNotPerturbFlow verifies the nil-sink contract end to end:
// attaching a full telemetry bundle (and a flight recorder) must leave the
// packet trace byte-identical to an uninstrumented run of the same seed.
func TestTelemetryDoesNotPerturbFlow(t *testing.T) {
	base := hsrScenario(t, cellular.ChinaMobileLTE, 42, 20*time.Second)
	base.Faults = faults.Stress(base.FlowDuration)

	plain, plainStats, err := RunFlow(base)
	if err != nil {
		t.Fatalf("RunFlow (plain): %v", err)
	}

	instrumented := base
	instrumented.Telemetry = telemetry.NewFlow()
	instrumented.FlightRecorder = telemetry.NewFlightRecorder(256)
	traced, tracedStats, err := RunFlow(instrumented)
	if err != nil {
		t.Fatalf("RunFlow (instrumented): %v", err)
	}

	if plainStats != tracedStats {
		t.Errorf("stats differ:\nplain: %+v\ninstr: %+v", plainStats, tracedStats)
	}
	if !reflect.DeepEqual(plain.Events, traced.Events) {
		t.Fatalf("event streams differ: %d vs %d events", len(plain.Events), len(traced.Events))
	}
}

// TestFlowTelemetryConsistency checks the harvested bundle against the
// flow's own counters and basic cross-section invariants.
func TestFlowTelemetryConsistency(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 7, 30*time.Second)
	// Hand-placed, non-overlapping episodes: under faults.Stress a storm
	// outage can cover the blackout window, in which case the inner channel
	// model (consulted first) claims every drop and no drop is attributable
	// to the schedule.
	sched, err := faults.New(
		faults.Episode{Kind: faults.Blackout, Start: 10 * time.Second, Dur: 3 * time.Second},
		faults.Episode{Kind: faults.AckBurst, Start: 20 * time.Second, Dur: 2 * time.Second, P: 0.9},
		faults.Episode{Kind: faults.Storm, Start: 25 * time.Second, Dur: 4 * time.Second, Count: 1, Outage: 2 * time.Second},
	)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	sc.Faults = sched
	tel := telemetry.NewFlow()
	sc.Telemetry = tel
	_, st, runErr := RunFlow(sc)
	if runErr != nil {
		t.Fatalf("RunFlow: %v", runErr)
	}

	if tel.TCP.Flows != 1 {
		t.Errorf("TCP.Flows = %d, want 1", tel.TCP.Flows)
	}
	if tel.TCP.DataSent != st.DataSent || tel.TCP.Timeouts != st.Timeouts ||
		tel.TCP.AcksDropped != st.AcksDropped {
		t.Errorf("TCP telemetry diverges from Stats:\ntel: %+v\nstats: %+v", tel.TCP, st)
	}
	if tel.TCP.Cwnd.N() != int(st.AcksReceived) {
		t.Errorf("Cwnd samples = %d, want one per received ACK (%d)", tel.TCP.Cwnd.N(), st.AcksReceived)
	}
	if tel.TCP.CwndHist.Total() != int64(tel.TCP.Cwnd.N()) {
		t.Errorf("CwndHist total %d != Cwnd samples %d", tel.TCP.CwndHist.Total(), tel.TCP.Cwnd.N())
	}
	if tel.TCP.BackoffHist.Total() != st.Timeouts {
		t.Errorf("BackoffHist total %d != timeouts %d", tel.TCP.BackoffHist.Total(), st.Timeouts)
	}
	if tel.TCP.RecoveryPhases == 0 || tel.TCP.RecoveryNS <= 0 {
		t.Errorf("stressed flow recorded no recovery phases (%d, %dns)",
			tel.TCP.RecoveryPhases, tel.TCP.RecoveryNS)
	}

	if tel.Kernel.Events == 0 || tel.Kernel.Scheduled == 0 {
		t.Errorf("kernel counters empty: %+v", tel.Kernel)
	}
	if tel.Kernel.VirtualNS <= 0 || tel.Kernel.BudgetEvents <= 0 {
		t.Errorf("kernel run totals missing: %+v", tel.Kernel)
	}
	if tel.Kernel.BudgetHeadroom() <= 0.9 {
		t.Errorf("BudgetHeadroom = %v; a normal flow should barely touch the budget", tel.Kernel.BudgetHeadroom())
	}

	if tel.Net.Data.Offered != st.DataSent {
		t.Errorf("Net.Data.Offered = %d, want DataSent %d", tel.Net.Data.Offered, st.DataSent)
	}
	if drops := tel.Net.Data.ChannelDrops + tel.Net.Data.QueueDrops; drops != st.DataDropped {
		t.Errorf("data drops %d != Stats.DataDropped %d", drops, st.DataDropped)
	}
	if tel.Net.Ack.Offered != st.AcksSent {
		t.Errorf("Net.Ack.Offered = %d, want AcksSent %d", tel.Net.Ack.Offered, st.AcksSent)
	}

	if tel.Faults.Schedules != 1 {
		t.Errorf("Faults.Schedules = %d, want 1", tel.Faults.Schedules)
	}
	episodes, storms := sc.Faults.Counts()
	if tel.Faults.Episodes != int64(episodes) || tel.Faults.StormOutages != int64(storms) {
		t.Errorf("Faults counts = %+v, want %d episodes / %d storm outages", tel.Faults, episodes, storms)
	}
	if tel.Faults.DataDrops == 0 {
		t.Errorf("blackout episode attributed no data drops")
	}
	if tel.Faults.AckDrops == 0 {
		t.Errorf("ACK-burst episode attributed no ACK drops")
	}
	if tel.WallNS <= 0 {
		t.Errorf("WallNS = %d, want > 0", tel.WallNS)
	}
}

// TestCampaignTelemetryReproducibleAcrossParallelism is the acceptance
// criterion for deterministic aggregation: the counter sections must be
// bit-identical between -jobs 1 and -jobs 8 runs of the same seed.
func TestCampaignTelemetryReproducibleAcrossParallelism(t *testing.T) {
	run := func(par int) *telemetry.Campaign {
		camp := telemetry.NewCampaign()
		_, err := RunCampaign(CampaignConfig{
			Seed: 3, FlowDuration: 10 * time.Second, FlowsPerRow: 2,
			Parallelism: par, Telemetry: camp,
		})
		if err != nil {
			t.Fatalf("RunCampaign(par=%d): %v", par, err)
		}
		return camp
	}
	seq := run(1)
	par := run(8)
	s1, s8 := seq.Snapshot(), par.Snapshot()
	if s1.FlowCount != s8.FlowCount {
		t.Fatalf("flow counts differ: %d vs %d", s1.FlowCount, s8.FlowCount)
	}
	if s1.Kernel != s8.Kernel {
		t.Errorf("kernel counters differ:\njobs=1: %+v\njobs=8: %+v", s1.Kernel, s8.Kernel)
	}
	if !reflect.DeepEqual(s1.TCP, s8.TCP) {
		t.Errorf("tcp counters differ:\njobs=1: %+v\njobs=8: %+v", s1.TCP, s8.TCP)
	}
	if s1.Net != s8.Net {
		t.Errorf("net counters differ:\njobs=1: %+v\njobs=8: %+v", s1.Net, s8.Net)
	}
	if s1.Channel != s8.Channel {
		t.Errorf("channel counters differ:\njobs=1: %+v\njobs=8: %+v", s1.Channel, s8.Channel)
	}
	if s1.Faults != s8.Faults {
		t.Errorf("fault counters differ:\njobs=1: %+v\njobs=8: %+v", s1.Faults, s8.Faults)
	}
}

// TestCampaignProgressCallback checks the per-flow progress stream: every
// flow reports exactly once and the final call carries done == total.
func TestCampaignProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var calls []int
	total := -1
	_, err := RunCampaign(CampaignConfig{
		Seed: 1, FlowDuration: 5 * time.Second, FlowsPerRow: 1, Parallelism: 4,
		Progress: func(done, tot int) {
			mu.Lock()
			calls = append(calls, done)
			total = tot
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	want := 4 // one flow per Table I row
	if total != want || len(calls) != want {
		t.Fatalf("progress calls = %d (total %d), want %d", len(calls), total, want)
	}
	sort.Ints(calls)
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done values = %v, want a permutation of 1..%d", calls, want)
		}
	}
}
