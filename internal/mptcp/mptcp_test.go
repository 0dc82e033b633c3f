package mptcp

import (
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/railway"
	"repro/internal/tcp"
)

// compareDuplex runs the single-flow baseline and an n-subflow duplex run on
// the same scenario and returns their throughputs (pps).
func compareDuplex(base dataset.Scenario, n int) (single, duplex float64, err error) {
	m, _, err := dataset.RunFlowMetrics(base)
	if err != nil {
		return 0, 0, err
	}
	d, err := RunDuplex(base, n)
	if err != nil {
		return 0, 0, err
	}
	return m.ThroughputPps, d.ThroughputPps, nil
}

func hsrScenario(t *testing.T, op cellular.Operator, seed int64, d time.Duration) dataset.Scenario {
	t.Helper()
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		t.Fatalf("NewTrip: %v", err)
	}
	start, _ := trip.CruiseWindow()
	return dataset.Scenario{
		ID: "mptcp-test", Operator: op, Trip: trip, TripOffset: start,
		FlowDuration: d, Seed: seed, TCP: tcp.DefaultConfig(), Scenario: "hsr",
	}
}

func TestRunDuplexAggregates(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 3, 40*time.Second)
	res, err := RunDuplex(sc, 2)
	if err != nil {
		t.Fatalf("RunDuplex: %v", err)
	}
	if len(res.Subflows) != 2 {
		t.Fatalf("subflows = %d, want 2", len(res.Subflows))
	}
	var sum int64
	for i, s := range res.Subflows {
		if s.Stats.UniqueDelivered == 0 {
			t.Errorf("subflow %d delivered nothing", i)
		}
		if s.Metrics == nil {
			t.Fatalf("subflow %d has nil metrics", i)
		}
		sum += s.Stats.UniqueDelivered
	}
	want := float64(sum) / 40.0
	if res.ThroughputPps != want {
		t.Errorf("aggregate pps = %v, want %v", res.ThroughputPps, want)
	}
}

func TestDuplexBeatsSingleOnHSR(t *testing.T) {
	// Average over a few seeds: subflow outages are independent, so the
	// aggregate should comfortably exceed one flow (the paper's Fig 12).
	var single, duplex float64
	for seed := int64(1); seed <= 3; seed++ {
		sc := hsrScenario(t, cellular.ChinaUnicom3G, seed, 45*time.Second)
		s, d, err := compareDuplex(sc, 2)
		if err != nil {
			t.Fatalf("compareDuplex: %v", err)
		}
		single += s
		duplex += d
	}
	if duplex <= single*1.2 {
		t.Errorf("duplex %v not clearly above single %v", duplex, single)
	}
}

func TestDuplexSubflowsDiffer(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 9, 30*time.Second)
	res, err := RunDuplex(sc, 2)
	if err != nil {
		t.Fatalf("RunDuplex: %v", err)
	}
	a, b := res.Subflows[0].Stats, res.Subflows[1].Stats
	if a.UniqueDelivered == b.UniqueDelivered && a.DataDropped == b.DataDropped {
		t.Error("subflows look identical; channel seeds not independent")
	}
}

func TestRunDuplexValidation(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 1, 10*time.Second)
	if _, err := RunDuplex(sc, 0); err == nil {
		t.Error("zero subflows accepted")
	}
	sc.FlowDuration = 0
	if _, err := RunDuplex(sc, 2); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestBackupModeReducesRecoveryImpact(t *testing.T) {
	// Compare plain TCP and backup-mode MPTCP on identical primary channels
	// over several seeds. The paper's claim is about reliability of the
	// retransmission process: double retransmission must shorten the
	// timeout recovery phases. Throughput is allowed to move only a little
	// in either direction — recovering early into a primary channel that is
	// still in outage restarts slow start, so the big throughput gains need
	// duplex mode (data on both subflows), which the paper also observes.
	var plainTput, backupTput float64
	var plainRec, backupRec time.Duration
	var backupUsed int
	for seed := int64(1); seed <= 3; seed++ {
		sc := hsrScenario(t, cellular.ChinaMobileLTE, seed, 45*time.Second)
		plain, _, err := dataset.RunFlowMetrics(sc)
		if err != nil {
			t.Fatalf("RunFlowMetrics: %v", err)
		}
		backup, err := RunBackup(sc)
		if err != nil {
			t.Fatalf("RunBackup: %v", err)
		}
		plainTput += plain.ThroughputPps
		backupTput += backup.Metrics.ThroughputPps
		plainRec += plain.MeanRecoveryDuration
		backupRec += backup.Metrics.MeanRecoveryDuration
		backupUsed += backup.BackupRetransmits
	}
	if backupUsed == 0 {
		t.Fatal("backup subflow never used despite HSR timeouts")
	}
	if backupRec >= plainRec {
		t.Errorf("backup mean recovery %v not below plain %v", backupRec, plainRec)
	}
	if backupRec > plainRec*85/100 {
		t.Errorf("backup recovery %v should be clearly below plain %v", backupRec, plainRec)
	}
	if backupTput < plainTput*0.85 {
		t.Errorf("backup throughput %v dropped more than 15%% below plain %v", backupTput, plainTput)
	}
}

func TestBackupCountersConsistent(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaTelecom3G, 5, 40*time.Second)
	res, err := RunBackup(sc)
	if err != nil {
		t.Fatalf("RunBackup: %v", err)
	}
	if res.BackupDelivered > res.BackupRetransmits {
		t.Errorf("backup delivered %d > sent %d", res.BackupDelivered, res.BackupRetransmits)
	}
	if res.Metrics == nil || res.Stats.UniqueDelivered == 0 {
		t.Error("backup run produced no data")
	}
	if res.BackupAcksDelivered == 0 {
		t.Error("no ACKs mirrored over the backup path")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(150, 100); got != 0.5 {
		t.Errorf("Improvement = %v, want 0.5", got)
	}
	if got := Improvement(50, 100); got != -0.5 {
		t.Errorf("Improvement = %v, want -0.5", got)
	}
	if got := Improvement(10, 0); got != 0 {
		t.Errorf("Improvement with zero baseline = %v, want 0", got)
	}
}

func TestTelecomGainsMostFromDuplex(t *testing.T) {
	// The paper's Fig 12: Telecom (poor coverage) gains far more from
	// multipath than Mobile. Average over seeds to damp noise.
	gain := func(op cellular.Operator) float64 {
		var single, duplex float64
		for seed := int64(1); seed <= 3; seed++ {
			sc := hsrScenario(t, op, seed, 45*time.Second)
			s, d, err := compareDuplex(sc, 2)
			if err != nil {
				t.Fatalf("compareDuplex(%s): %v", op.Name, err)
			}
			single += s
			duplex += d
		}
		return Improvement(duplex, single)
	}
	mobile := gain(cellular.ChinaMobileLTE)
	telecom := gain(cellular.ChinaTelecom3G)
	if telecom <= mobile {
		t.Errorf("Telecom duplex gain (%v) should exceed Mobile's (%v)", telecom, mobile)
	}
}
