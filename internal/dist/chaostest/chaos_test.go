package chaostest

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

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

// TestScheduleDeterministic pins the harness's replay property: the same
// seed yields the same action for every (worker, ordinal).
func TestScheduleDeterministic(t *testing.T) {
	a := &Schedule{Seed: 9, KillP: 0.2, StallP: 0.2, TruncateP: 0.2, SlowP: 0.2}
	b := &Schedule{Seed: 9, KillP: 0.2, StallP: 0.2, TruncateP: 0.2, SlowP: 0.2}
	seen := map[Action]bool{}
	for w := 0; w < 3; w++ {
		for n := 0; n < 200; n++ {
			x, y := a.Action(w, n), b.Action(w, n)
			if x != y {
				t.Fatalf("schedule not deterministic at (%d, %d): %v vs %v", w, n, x, y)
			}
			seen[x] = true
		}
	}
	for _, want := range []Action{Pass, Kill, Stall, Truncate, Slow} {
		if !seen[want] {
			t.Fatalf("schedule never produced %v over 600 draws", want)
		}
	}
}

// TestCampaignByteIdentityUnderChaos is the harness's reason to exist:
// every failure schedule — kill-heavy, stall-heavy, truncating responses
// mid-stream, and a mixed storm — must leave the distributed campaign's
// counters and per-flow metrics byte-identical to the single-node run.
func TestCampaignByteIdentityUnderChaos(t *testing.T) {
	cfg := dataset.CampaignConfig{Seed: 21, FlowDuration: 2 * time.Second, FlowsPerRow: 2}

	// Single-node reference, computed once.
	ref := telemetry.NewCampaign()
	refCfg := cfg
	refCfg.Telemetry = ref
	refCamp, err := dataset.RunCampaign(refCfg)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	refBytes := countersJSON(t, ref)

	schedules := []Schedule{
		{Seed: 1, KillP: 0.4},
		{Seed: 2, StallP: 0.25},
		// Seed 27 truncates ordinal 0 on both workers, so the injected>0
		// sanity check below holds however few requests a fast campaign
		// makes (heartbeat count scales with wall time, and flows are now
		// quick enough that a campaign can finish inside one interval).
		{Seed: 27, TruncateP: 0.4},
		{Seed: 4, KillP: 0.15, StallP: 0.1, TruncateP: 0.15, SlowP: 0.3},
		{Seed: 5, KillP: 0.7}, // heavy enough to exhaust retries into local fallback
	}
	for i := range schedules {
		sched := schedules[i]
		t.Run(sched.describe(), func(t *testing.T) {
			t.Parallel()
			var servers []*httptest.Server
			for j := 0; j < 2; j++ {
				srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
				ts := httptest.NewServer(srv.Handler())
				t.Cleanup(func() { ts.Close(); srv.Drain() })
				servers = append(servers, ts)
			}
			tr := &Transport{
				Sched:     &sched,
				SlowDelay: func() { time.Sleep(20 * time.Millisecond) },
			}
			c, err := dist.New(dist.Config{
				Workers:           []string{servers[0].URL, servers[1].URL},
				UnitFlows:         1,
				UnitTimeout:       time.Second,
				MaxAttempts:       3,
				BackoffBase:       5 * time.Millisecond,
				BackoffMax:        50 * time.Millisecond,
				HeartbeatInterval: 50 * time.Millisecond,
				FailAfter:         3,
				HedgeAfter:        2 * time.Second,
				Seed:              sched.Seed,
				HTTPClient:        &http.Client{Transport: tr},
			})
			if err != nil {
				t.Fatalf("new coordinator: %v", err)
			}
			defer c.Close()

			got := telemetry.NewCampaign()
			dcfg := cfg
			dcfg.Telemetry = got
			camp, err := c.RunCampaign(dcfg)
			if err != nil {
				t.Fatalf("campaign under %s: %v", sched.describe(), err)
			}
			if a, b := refBytes, countersJSON(t, got); string(a) != string(b) {
				t.Fatalf("counters diverged under %s:\n%s\nvs\n%s", sched.describe(), a, b)
			}
			for i := range camp.Results {
				a, _ := json.Marshal(camp.Results[i].Metrics)
				b, _ := json.Marshal(refCamp.Results[i].Metrics)
				if string(a) != string(b) {
					t.Fatalf("flow %d metrics diverged under %s", i, sched.describe())
				}
			}
			if tr.Injected() == 0 {
				t.Fatalf("schedule %s injected nothing — harness is not exercising failure paths", sched.describe())
			}
			t.Logf("schedule %s: injected=%d fleet=%+v", sched.describe(), tr.Injected(), c.Counters())
		})
	}
}
