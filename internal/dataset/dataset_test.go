package dataset

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/railway"
	"repro/internal/tcp"
)

func hsrTrip(t *testing.T) railway.Trip {
	t.Helper()
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		t.Fatalf("NewTrip: %v", err)
	}
	return trip
}

func stationaryTrip(t *testing.T) railway.Trip {
	t.Helper()
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.StationaryProfile)
	if err != nil {
		t.Fatalf("NewTrip: %v", err)
	}
	return trip
}

func hsrScenario(t *testing.T, op cellular.Operator, seed int64, d time.Duration) Scenario {
	t.Helper()
	trip := hsrTrip(t)
	start, _ := trip.CruiseWindow()
	return Scenario{
		ID: "test-flow", Operator: op, Trip: trip, TripOffset: start,
		FlowDuration: d, Seed: seed, TCP: tcp.DefaultConfig(), Scenario: "hsr",
	}
}

func TestScenarioValidate(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 1, 10*time.Second)
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := sc
	bad.FlowDuration = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duration accepted")
	}
	bad = sc
	bad.TripOffset = -time.Second
	if err := bad.Validate(); err == nil {
		t.Error("negative offset accepted")
	}
	bad = sc
	bad.Operator.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("invalid operator accepted")
	}
	bad = sc
	bad.TCP.MSS = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid TCP config accepted")
	}
}

func TestRunFlowStationaryIsClean(t *testing.T) {
	trip := stationaryTrip(t)
	ft, st, err := RunFlow(Scenario{
		ID: "stat", Operator: cellular.ChinaMobileLTE, Trip: trip,
		FlowDuration: 30 * time.Second, Seed: 5, TCP: tcp.DefaultConfig(), Scenario: "stationary",
	})
	if err != nil {
		t.Fatalf("RunFlow: %v", err)
	}
	if err := ft.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	// Stationary flows may hit a rare micro-outage, but timeouts must be
	// scarce and throughput high.
	if st.Timeouts > 2 {
		t.Errorf("stationary flow had %d timeouts, want at most the odd micro-outage", st.Timeouts)
	}
	if st.UniqueDelivered < 5000 {
		t.Errorf("stationary throughput too low: %d delivered in 30s", st.UniqueDelivered)
	}
	if ft.Meta.Scenario != "stationary" || ft.Meta.Operator != "China Mobile" {
		t.Errorf("trace meta = %+v", ft.Meta)
	}
}

func TestRunFlowHSRShowsPaperEffects(t *testing.T) {
	m, _, err := RunFlowMetrics(hsrScenario(t, cellular.ChinaMobileLTE, 7, 90*time.Second))
	if err != nil {
		t.Fatalf("RunFlowMetrics: %v", err)
	}
	if m.TimeoutSequences < 3 {
		t.Errorf("HSR flow had %d timeout sequences, want several", m.TimeoutSequences)
	}
	if m.SpuriousTimeouts == 0 {
		t.Error("HSR flow had no spurious timeouts")
	}
	if m.MeanRecoveryDuration < time.Second {
		t.Errorf("mean recovery = %v, want multi-second", m.MeanRecoveryDuration)
	}
	if m.AckLossRate <= 0.001 {
		t.Errorf("HSR ACK loss rate = %v, want elevated", m.AckLossRate)
	}
	if m.RecoveryLossRate <= 0.05 {
		t.Errorf("recovery loss rate q = %v, want well above lifetime loss", m.RecoveryLossRate)
	}
	if m.ThroughputPps <= 0 {
		t.Error("no throughput")
	}
}

func TestRunFlowDeterministic(t *testing.T) {
	run := func() float64 {
		m, _, err := RunFlowMetrics(hsrScenario(t, cellular.ChinaUnicom3G, 11, 30*time.Second))
		if err != nil {
			t.Fatalf("RunFlowMetrics: %v", err)
		}
		return m.ThroughputPps
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed gave different throughput: %v vs %v", a, b)
	}
}

func TestRunFlowSeedsDiffer(t *testing.T) {
	a, _, err := RunFlowMetrics(hsrScenario(t, cellular.ChinaMobileLTE, 1, 30*time.Second))
	if err != nil {
		t.Fatalf("RunFlowMetrics: %v", err)
	}
	b, _, err := RunFlowMetrics(hsrScenario(t, cellular.ChinaMobileLTE, 2, 30*time.Second))
	if err != nil {
		t.Fatalf("RunFlowMetrics: %v", err)
	}
	if a.ThroughputPps == b.ThroughputPps && a.DataLost == b.DataLost {
		t.Error("different seeds produced identical flows")
	}
}

func TestTableIStructure(t *testing.T) {
	rows := TableI()
	if len(rows) != 4 {
		t.Fatalf("TableI rows = %d, want 4", len(rows))
	}
	totalFlows := 0
	totalGB := 0.0
	for _, r := range rows {
		totalFlows += r.Flows
		totalGB += r.TraceGB
		if err := r.Operator.Validate(); err != nil {
			t.Errorf("row %s operator: %v", r.Month, err)
		}
	}
	if totalFlows != 255 {
		t.Errorf("total flows = %d, want the paper's 255", totalFlows)
	}
	if totalGB < 40.4 || totalGB > 40.5 {
		t.Errorf("total trace size = %.2f GB, want the paper's 40.47", totalGB)
	}
}

func TestRunCampaignSmall(t *testing.T) {
	c, err := RunCampaign(CampaignConfig{
		Seed: 1, FlowDuration: 20 * time.Second, FlowsPerRow: 2,
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if len(c.Results) != 8 {
		t.Fatalf("results = %d, want 8 (2 per row)", len(c.Results))
	}
	names, groups := c.ByOperator()
	if len(names) != 3 {
		t.Fatalf("operators = %v, want 3 distinct", names)
	}
	if len(groups["China Mobile"]) != 4 {
		t.Errorf("Mobile flows = %d, want 4 (two rows)", len(groups["China Mobile"]))
	}
	for _, r := range c.Results {
		if r.Metrics == nil {
			t.Fatal("nil metrics in campaign result")
		}
		if r.Metrics.UniqueDelivered == 0 {
			t.Errorf("flow %s delivered nothing", r.Metrics.Meta.ID)
		}
	}
	if got := len(c.Metrics()); got != 8 {
		t.Errorf("Metrics() = %d entries, want 8", got)
	}
}

func TestCampaignHSRVsStationary(t *testing.T) {
	hsr, err := RunCampaign(CampaignConfig{Seed: 3, FlowDuration: 25 * time.Second, FlowsPerRow: 2})
	if err != nil {
		t.Fatalf("hsr campaign: %v", err)
	}
	stat, err := RunCampaign(CampaignConfig{Seed: 3, FlowDuration: 25 * time.Second, FlowsPerRow: 2, Stationary: true})
	if err != nil {
		t.Fatalf("stationary campaign: %v", err)
	}
	var hsrAck, statAck, hsrTOs, statTOs float64
	for _, r := range hsr.Results {
		hsrAck += r.Metrics.AckLossRate
		hsrTOs += float64(r.Metrics.TimeoutSequences)
	}
	for _, r := range stat.Results {
		statAck += r.Metrics.AckLossRate
		statTOs += float64(r.Metrics.TimeoutSequences)
	}
	if hsrAck <= statAck {
		t.Errorf("HSR ACK loss (%v) should exceed stationary (%v)", hsrAck, statAck)
	}
	if hsrTOs <= statTOs {
		t.Errorf("HSR timeouts (%v) should exceed stationary (%v)", hsrTOs, statTOs)
	}
}

func TestRunCampaignRejectsBadConfig(t *testing.T) {
	if _, err := RunCampaign(CampaignConfig{Seed: 1, FlowDuration: 0}); err == nil {
		t.Error("zero flow duration accepted")
	}
}

func TestFlowOffsetInsideCruise(t *testing.T) {
	trip := hsrTrip(t)
	start, end := trip.CruiseWindow()
	for seed := int64(0); seed < 50; seed++ {
		off := flowOffset(trip, seed, 60*time.Second)
		if off < start || off+60*time.Second > end {
			t.Fatalf("seed %d: offset %v outside cruise window (%v, %v)", seed, off, start, end)
		}
	}
	if off := flowOffset(stationaryTrip(t), 1, time.Minute); off != 0 {
		t.Errorf("stationary offset = %v, want 0", off)
	}
}

func TestBuildPathRejectsInvalidOperator(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 1, 10*time.Second)
	sc.Operator.DownlinkRate = 0
	if _, _, err := RunFlow(sc); err == nil {
		t.Error("invalid operator accepted by RunFlow")
	}
}

func TestRunCampaignParallelismDeterministic(t *testing.T) {
	// Every flow is its own sealed simulation, so the worker count must not
	// change anything: a Parallelism: 8 campaign has to reproduce the
	// sequential campaign exactly, FlowResult by FlowResult, in order.
	seq, err := RunCampaign(CampaignConfig{
		Seed: 7, FlowDuration: 15 * time.Second, FlowsPerRow: 2, Parallelism: 1,
	})
	if err != nil {
		t.Fatalf("sequential campaign: %v", err)
	}
	par, err := RunCampaign(CampaignConfig{
		Seed: 7, FlowDuration: 15 * time.Second, FlowsPerRow: 2, Parallelism: 8,
	})
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	if len(par.Results) != len(seq.Results) {
		t.Fatalf("parallel results = %d, sequential = %d", len(par.Results), len(seq.Results))
	}
	for i := range seq.Results {
		if par.Results[i].Row != seq.Results[i].Row {
			t.Errorf("result %d row = %+v, want %+v", i, par.Results[i].Row, seq.Results[i].Row)
		}
		if !reflect.DeepEqual(par.Results[i].Metrics, seq.Results[i].Metrics) {
			t.Errorf("result %d metrics differ between Parallelism 8 and 1 (flow %s)",
				i, seq.Results[i].Metrics.Meta.ID)
		}
	}
}
