package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// countersJSON marshals a campaign's deterministic counter sections
// (everything except wall-clock resource fields).
func countersJSON(t *testing.T, c *telemetry.Campaign) []byte {
	t.Helper()
	s := c.Snapshot()
	s.WallNS = 0
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal campaign counters: %v", err)
	}
	return raw
}

// TestUnitJobByteIdentity runs a campaign as unit jobs against a worker
// server and replays the shipped flows in plan order: the reassembled
// telemetry counters must be byte-identical to a local RunCampaign with
// telemetry attached (wall time excluded — it is a host
// measurement), and the metrics must match flow for flow. This is the
// worker half of the distributed contract; internal/dist tests the
// coordinator.
func TestUnitJobByteIdentity(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 4})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := dataset.CampaignConfig{Seed: 7, FlowDuration: 2 * time.Second, FlowsPerRow: 2}
	plan, err := dataset.PlanCampaign(cfg)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}

	// Reference: a plain local campaign with telemetry.
	ref := telemetry.NewCampaign()
	refCfg := cfg
	refCfg.Telemetry = ref
	refCamp, err := dataset.RunCampaign(refCfg)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	refBytes := countersJSON(t, ref)

	// Distributed: three uneven units over the worker's HTTP surface.
	bounds := []int{0, 3, 4, len(plan)}
	flows := make([]UnitFlow, 0, len(plan))
	for u := 0; u+1 < len(bounds); u++ {
		spec := fmt.Sprintf(`{"kind":"unit","unit":{"seed":7,"duration":"2s","flows_per_row":2,"start":%d,"end":%d}}`,
			bounds[u], bounds[u+1])
		resp := postJob(t, ts.Client(), ts.URL, spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unit job status %d", resp.StatusCode)
		}
		last := terminal(t, readEvents(t, resp.Body))
		resp.Body.Close()
		if last.Event != "result" || last.Unit == nil {
			t.Fatalf("unit terminal %+v", last)
		}
		if got, want := len(last.Unit.Flows), bounds[u+1]-bounds[u]; got != want {
			t.Fatalf("unit [%d,%d): %d flows, want %d", bounds[u], bounds[u+1], got, want)
		}
		flows = append(flows, last.Unit.Flows...)
	}

	// Reassemble exactly like the coordinator: AddFlow in plan order.
	merged := telemetry.NewCampaign()
	for i, uf := range flows {
		if uf.Index != i {
			t.Fatalf("flow %d shipped with index %d", i, uf.Index)
		}
		if uf.Flow.Telemetry == nil {
			t.Fatalf("flow %d shipped without telemetry", i)
		}
		merged.AddFlow(uf.Flow.Telemetry.Restore())
		if a, _ := json.Marshal(uf.Flow.Metrics); true {
			b, _ := json.Marshal(refCamp.Results[i].Metrics)
			if string(a) != string(b) {
				t.Fatalf("flow %d metrics diverged:\n%s\nvs\n%s", i, a, b)
			}
		}
	}
	gotBytes := countersJSON(t, merged)
	if string(refBytes) != string(gotBytes) {
		t.Fatalf("distributed telemetry not byte-identical:\n%s\nvs\n%s", refBytes, gotBytes)
	}
}

// TestUnitJobCachedReplayIdentical re-runs a unit against a shared cache:
// the second run must be served from telemetry-complete entries and carry
// byte-identical flow payloads — the property reassignment and hedging
// lean on for their at-most-once effect.
func TestUnitJobCachedReplayIdentical(t *testing.T) {
	cache, err := dataset.OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	srv := New(Config{Workers: 1, QueueDepth: 2, Cache: cache})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"kind":"unit","unit":{"seed":3,"duration":"2s","flows_per_row":1,"start":0,"end":2}}`
	run := func() *UnitResult {
		resp := postJob(t, ts.Client(), ts.URL, spec)
		defer resp.Body.Close()
		last := terminal(t, readEvents(t, resp.Body))
		if last.Unit == nil {
			t.Fatalf("no unit payload: %+v", last)
		}
		return last.Unit
	}
	first, second := run(), run()
	if second.CacheHits != 2 {
		t.Fatalf("replayed unit hit %d of 2 cached flows", second.CacheHits)
	}
	for i := range first.Flows {
		a, _ := json.Marshal(first.Flows[i].Flow)
		b, _ := json.Marshal(second.Flows[i].Flow)
		if string(a) != string(b) {
			t.Fatalf("cached replay of flow %d diverged:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestReadyz covers the readiness probe's three answers: ready, degraded
// (coordinator with a fully-unhealthy fleet) and draining (503).
func TestReadyz(t *testing.T) {
	fleet := []FleetWorker{{URL: "http://w1", Healthy: false, ConsecutiveFails: 3}}
	srv := New(Config{Workers: 1, QueueDepth: 1, Fleet: func() []FleetWorker { return fleet }})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(wantStatus int) readyzBody {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("readyz status %d, want %d", resp.StatusCode, wantStatus)
		}
		var body readyzBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("readyz decode: %v", err)
		}
		return body
	}

	if body := get(http.StatusOK); body.Status != "degraded" || len(body.Fleet) != 1 {
		t.Fatalf("unhealthy fleet: %+v", body)
	}
	fleet[0].Healthy = true
	if body := get(http.StatusOK); body.Status != "ready" {
		t.Fatalf("healthy fleet: %+v", body)
	}
	srv.StartDrain()
	if body := get(http.StatusServiceUnavailable); body.Status != "draining" {
		t.Fatalf("draining: %+v", body)
	}
}

// TestStreamAbortUnblocksEmit is the backpressure fix at the stream level:
// once the handler declares the client gone, even must-deliver emits on a
// full buffer return immediately instead of wedging the worker goroutine.
func TestStreamAbortUnblocksEmit(t *testing.T) {
	st := newStream()
	for i := 0; i < cap(st.ch); i++ {
		st.emit(Event{Event: "flows"})
	}
	st.abort()
	done := make(chan struct{})
	go func() {
		st.emit(Event{Event: "result"}) // buffer full + aborted: must not block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("emit blocked on a full, aborted stream")
	}
}
