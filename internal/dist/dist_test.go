package dist

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// testWorker spins up one in-process hsrserved worker.
func testWorker(t *testing.T) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Drain() })
	return ts, srv
}

// reference runs the campaign single-node (no cache: every flow simulates
// and contributes telemetry) and returns its counters JSON plus results.
func reference(t *testing.T, cfg dataset.CampaignConfig) ([]byte, *dataset.Campaign) {
	t.Helper()
	ref := telemetry.NewCampaign()
	rcfg := cfg
	rcfg.Telemetry = ref
	camp, err := dataset.RunCampaign(rcfg)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	return countersJSON(t, ref), camp
}

// countersJSON marshals a campaign's deterministic counter sections.
func countersJSON(t *testing.T, c *telemetry.Campaign) []byte {
	t.Helper()
	s := c.Snapshot()
	s.WallNS = 0
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal counters: %v", err)
	}
	return raw
}

// assertIdentical runs the campaign through the coordinator and compares
// counters and per-flow metrics against the single-node reference.
func assertIdentical(t *testing.T, c *Coordinator, cfg dataset.CampaignConfig) {
	t.Helper()
	refBytes, refCamp := reference(t, cfg)
	got := telemetry.NewCampaign()
	dcfg := cfg
	dcfg.Telemetry = got
	camp, err := c.RunCampaign(dcfg)
	if err != nil {
		t.Fatalf("distributed campaign: %v", err)
	}
	if a, b := refBytes, countersJSON(t, got); string(a) != string(b) {
		t.Fatalf("distributed counters not byte-identical:\n%s\nvs\n%s", a, b)
	}
	if len(camp.Results) != len(refCamp.Results) {
		t.Fatalf("result count %d, want %d", len(camp.Results), len(refCamp.Results))
	}
	for i := range camp.Results {
		a, _ := json.Marshal(camp.Results[i].Metrics)
		b, _ := json.Marshal(refCamp.Results[i].Metrics)
		if string(a) != string(b) {
			t.Fatalf("flow %d metrics diverged:\n%s\nvs\n%s", i, a, b)
		}
		if camp.Results[i].Row != refCamp.Results[i].Row {
			t.Fatalf("flow %d row diverged", i)
		}
	}
}

func quickCampaign(seed int64) dataset.CampaignConfig {
	return dataset.CampaignConfig{Seed: seed, FlowDuration: 2 * time.Second, FlowsPerRow: 2}
}

// TestCoordinatorByteIdentity is the acceptance criterion in miniature: a
// two-worker distributed run is byte-identical (counters and per-flow
// metrics) to single-node, with small units forcing plenty of dispatch.
func TestCoordinatorByteIdentity(t *testing.T) {
	w1, _ := testWorker(t)
	w2, _ := testWorker(t)
	c, err := New(Config{
		Workers:           []string{w1.URL, w2.URL},
		UnitFlows:         3,
		UnitTimeout:       30 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
		Seed:              1,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Close()

	assertIdentical(t, c, quickCampaign(11))

	f := c.Counters()
	if f.Units == 0 || f.UnitsCompleted != f.Units || f.UnitsLocal != 0 {
		t.Fatalf("fleet counters after clean run: %+v", f)
	}
}

// TestCoordinatorWorkerKilledMidCampaign closes one of two workers while
// the campaign runs: its in-flight and queued units must be retried onto
// the survivor (or locally) and the output must stay byte-identical.
func TestCoordinatorWorkerKilledMidCampaign(t *testing.T) {
	w1, _ := testWorker(t)
	w2, _ := testWorker(t)
	c, err := New(Config{
		Workers:           []string{w1.URL, w2.URL},
		UnitFlows:         1, // many small units: the kill always lands mid-campaign
		UnitTimeout:       30 * time.Second,
		MaxAttempts:       4,
		BackoffBase:       10 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		FailAfter:         2,
		Seed:              2,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Close()

	cfg := quickCampaign(13)
	var killed atomic.Bool
	cfg.Progress = func(done, total int) {
		if done >= total/4 && killed.CompareAndSwap(false, true) {
			w2.CloseClientConnections()
			w2.Close()
		}
	}
	assertIdentical(t, c, cfg)
	if !killed.Load() {
		t.Fatal("worker was never killed mid-campaign")
	}
	if f := c.Counters(); f.Retries == 0 && f.UnitsLocal == 0 && f.Reassignments == 0 {
		t.Fatalf("no failure handling recorded after a worker kill: %+v", f)
	}
}

// TestCoordinatorDegradedMode takes the whole fleet down before the
// campaign: heartbeats eject every worker, the degraded watchdog finishes
// the campaign locally, and output is still byte-identical.
func TestCoordinatorDegradedMode(t *testing.T) {
	w1, _ := testWorker(t)
	c, err := New(Config{
		Workers:           []string{w1.URL},
		UnitFlows:         2,
		UnitTimeout:       2 * time.Second,
		MaxAttempts:       2,
		BackoffBase:       10 * time.Millisecond,
		HeartbeatInterval: 30 * time.Millisecond,
		FailAfter:         2,
		Seed:              3,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Close()

	w1.CloseClientConnections()
	w1.Close()
	// Let the heartbeats eject the worker first, so the run exercises the
	// nobody-is-pulling path rather than per-request retries.
	deadline := time.Now().Add(5 * time.Second)
	for c.healthyWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never ejected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	assertIdentical(t, c, quickCampaign(17))
	f := c.Counters()
	if f.Degraded == 0 {
		t.Fatalf("degraded mode not recorded: %+v", f)
	}
	if f.WorkersLost == 0 {
		t.Fatalf("worker loss not recorded: %+v", f)
	}
	if f.UnitsLocal == 0 {
		t.Fatalf("no local units in degraded mode: %+v", f)
	}
	fh := c.FleetHealth()
	if len(fh) != 1 || fh[0].Healthy {
		t.Fatalf("fleet health after loss: %+v", fh)
	}
}

// TestCoordinatorReadmission ejects a worker, revives it at the same
// address, and expects the heartbeat to readmit it into dispatch.
func TestCoordinatorReadmission(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 4})
	defer srv.Drain()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Start()
	addr := ts.URL

	c, err := New(Config{
		Workers:           []string{addr},
		HeartbeatInterval: 25 * time.Millisecond,
		FailAfter:         2,
		Seed:              4,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Close()

	waitHealthy := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for (c.healthyWorkers() != 0) != want {
			if time.Now().After(deadline) {
				t.Fatalf("worker health never became %v", want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	lst := ts.Listener
	ts.CloseClientConnections()
	lst.Close()
	waitHealthy(false)

	// Revive on the same address.
	srv2 := serve.New(serve.Config{Workers: 1, QueueDepth: 4})
	defer srv2.Drain()
	ts2 := httptest.NewUnstartedServer(srv2.Handler())
	ts2.Listener.Close()
	l, err := listenOn(addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	ts2.Listener = l
	ts2.Start()
	defer ts2.Close()
	waitHealthy(true)

	if f := c.Counters(); f.WorkersLost != 1 || f.WorkersReadmitted != 1 {
		t.Fatalf("lost/readmit counters: %+v", f)
	}
}

// listenOn rebinds a listener on the host:port of a previously-used URL.
func listenOn(url string) (net.Listener, error) {
	return net.Listen("tcp", strings.TrimPrefix(url, "http://"))
}
