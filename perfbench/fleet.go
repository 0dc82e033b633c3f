package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// The fleet-jobs workload: an in-process coordinator and two workers, each a
// serve.Server on a 127.0.0.1 listener. The coordinator's campaign runner is
// a dist.Coordinator; each worker has one slot and flow parallelism one. One
// closed-loop client submits a seeded sequence of quick campaign jobs with
// short flows and small units, reads each NDJSON stream to its terminal
// event, and scrapes /metrics once after every job, as Prometheus would. A
// round is one cycle through the seed's job specs.

const (
	fleetFlowsPerRow = 2
	fleetDuration    = 10 * time.Second
	fleetUnitFlows   = 2
	// fleetSpecs is how many distinct job specs the client cycles through;
	// one cycle is a round. Workers have no cache, so a repeated spec
	// simulates again.
	fleetSpecs = 16
)

// jobSpec is the client's i-th distinct job for a workload seed.
func jobSpec(seed int64, i int) serve.JobSpec {
	return serve.JobSpec{
		Kind:        serve.KindCampaign,
		Seed:        seed*100 + int64(i),
		Quick:       true,
		Duration:    serve.Duration(fleetDuration),
		FlowsPerRow: fleetFlowsPerRow,
	}
}

// node is one serve.Server behind its own listener.
type node struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startNode(cfg serve.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: serve.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	n.hs = &http.Server{Handler: n.srv.Handler()}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// stop drains the node and waits for its serve loop to return.
func (n *node) stop() error {
	n.srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	n.srv.Drain()
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// fleet is the coordinator, its two workers, the coordinator's fleet
// transport (timed when recording) and the client's own transport.
type fleet struct {
	workers []*node
	coord   *dist.Coordinator
	front   *node
	units   *unitTimer
	client  *http.Client
}

func startFleet(seed int64) (*fleet, error) {
	f := &fleet{
		units:  &unitTimer{base: &http.Transport{}},
		client: &http.Client{Transport: &http.Transport{}},
	}
	var urls []string
	for i := 0; i < 2; i++ {
		w, err := startNode(serve.Config{Workers: 1, QueueDepth: 4, FlowParallelism: 1})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		urls = append(urls, w.url)
	}
	coord, err := dist.New(dist.Config{
		Workers:     urls,
		UnitFlows:   fleetUnitFlows,
		WorkerSlots: 1,
		Seed:        seed,
		HTTPClient:  &http.Client{Transport: f.units},
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = coord
	f.front, err = startNode(serve.Config{
		Workers: 1, QueueDepth: 4, DAGJobs: 1,
		Runner:        coord.Runner(),
		Fleet:         coord.FleetHealth,
		FleetCounters: coord.Counters,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	if err := f.waitReady(); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// waitReady polls the coordinator's /readyz until it reports both workers
// healthy.
func (f *fleet) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := f.client.Get(f.front.url + "/readyz")
		if err == nil {
			var body struct {
				Status string              `json:"status"`
				Fleet  []serve.FleetWorker `json:"fleet"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			healthy := 0
			for _, w := range body.Fleet {
				if w.Healthy {
					healthy++
				}
			}
			if derr == nil && body.Status == "ready" && healthy == 2 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not ready after 30s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts every node down, stops the heartbeat monitors and closes idle
// client connections, so no listener or goroutine outlives the fleet.
func (f *fleet) stop() error {
	var errs []error
	if f.front != nil {
		errs = append(errs, f.front.stop())
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, w := range f.workers {
		errs = append(errs, w.stop())
	}
	f.units.base.CloseIdleConnections()
	f.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// jobResult is what the client observed of one job.
type jobResult struct {
	status      int
	resultBytes int
	campaign    json.RawMessage
	err         error
}

// terminal is the part of a terminal NDJSON event the client checks.
type terminal struct {
	Event  string `json:"event"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Report *struct {
		Campaign json.RawMessage `json:"campaign"`
	} `json:"report"`
}

// submit posts one job and reads its stream to the terminal event.
func (f *fleet) submit(spec serve.JobSpec) jobResult {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobResult{err: err}
	}
	resp, err := f.client.Post(f.front.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobResult{err: err}
	}
	defer resp.Body.Close()
	res := jobResult{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return res
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var ev terminal
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			res.err = fmt.Errorf("bad event line: %w", err)
			return res
		}
		if ev.Event != "result" && ev.Event != "error" {
			continue
		}
		res.resultBytes = len(sc.Bytes())
		switch {
		case ev.Event == "error" || ev.Status != "ok":
			res.err = fmt.Errorf("job %s: %s", ev.Status, ev.Error)
		case ev.Report == nil || len(ev.Report.Campaign) == 0:
			res.err = errors.New("result has no campaign report")
		default:
			res.campaign = append(json.RawMessage(nil), ev.Report.Campaign...)
		}
		return res
	}
	if err := sc.Err(); err != nil {
		res.err = err
	} else {
		res.err = errors.New("stream ended without a terminal event")
	}
	return res
}

// scrape is one GET /metrics: its latency and the queue-wait summary.
type scrape struct {
	latency          time.Duration
	waitSum, waitCnt float64
}

func (f *fleet) scrape() (scrape, error) {
	start := time.Now()
	resp, err := f.client.Get(f.front.url + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := scrape{latency: time.Since(start)}
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, perr := strconv.ParseFloat(fields[1], 64)
		switch fields[0] {
		case "hsrserved_job_queue_wait_ms_sum":
			s.waitSum, err = v, perr
		case "hsrserved_job_queue_wait_ms_count":
			s.waitCnt, err = v, perr
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

// loadgen is the closed-loop client: one job at a time, then one scrape.
type loadgen struct {
	op   opts
	f    *fleet
	next int
	out  *outcome
	// results keeps each distinct spec's first campaign report, checked
	// against a single-node run after the timed region.
	results  map[int]json.RawMessage
	scrapeMs []float64
	waitMs   []float64
	bytes    []float64
	// gapMs is how far the client ran behind a back-to-back schedule: the
	// time from the end of one job's scrape to the next submission, which a
	// closed loop would otherwise hide.
	gapMs    []float64
	rejected int
	lastEnd  time.Time
	lastWait scrape
	busy     time.Duration
}

func newLoadgen(op opts, f *fleet) *loadgen {
	return &loadgen{op: op, f: f, out: &outcome{metrics: metrics{}}, results: map[int]json.RawMessage{}}
}

// job runs the next job and its scrape and returns the spec index and the
// time both took.
func (g *loadgen) job(tr *tracing.Trace, parent string) (int, time.Duration) {
	k := g.next % fleetSpecs
	g.next++
	g.out.attempted++
	start := time.Now()
	if !g.lastEnd.IsZero() {
		g.gapMs = append(g.gapMs, ms(start.Sub(g.lastEnd)))
	}
	sp := tr.StartSpan(parent, "job", fmt.Sprintf("spec-%d", k))
	res := g.f.submit(jobSpec(g.op.seed, k))
	sp.End()
	if res.status == http.StatusTooManyRequests {
		g.rejected++
	}
	if res.err != nil {
		g.out.fail(g.op, "job spec %d: %v", k, res.err)
	} else {
		g.bytes = append(g.bytes, float64(res.resultBytes))
		if prev, ok := g.results[k]; !ok {
			g.results[k] = res.campaign
		} else if !bytes.Equal(stripWall(prev), stripWall(res.campaign)) {
			g.out.fail(g.op, "job spec %d: campaign counters differ from an earlier run of the same spec", k)
		}
	}
	ssp := tr.StartSpan(parent, "scrape", "/metrics")
	s, err := g.f.scrape()
	ssp.End()
	if err != nil {
		g.out.fail(g.op, "scrape: %v", err)
	} else {
		g.scrapeMs = append(g.scrapeMs, ms(s.latency))
		if dc := s.waitCnt - g.lastWait.waitCnt; dc > 0 {
			g.waitMs = append(g.waitMs, (s.waitSum-g.lastWait.waitSum)/dc)
		}
		g.lastWait = s
	}
	g.lastEnd = time.Now()
	g.busy += g.lastEnd.Sub(start)
	return k, g.lastEnd.Sub(start)
}

// round runs one job of every spec, records each one's time in fl under
// its spec, and returns the time the round took. The client gap is
// measured within a round only.
func (g *loadgen) round(tr *tracing.Trace, parent string, fl floors) time.Duration {
	g.lastEnd = time.Time{}
	busy := g.busy
	for i := 0; i < fleetSpecs; i++ {
		k, d := g.job(tr, parent)
		fl.add(strconv.Itoa(k), d)
	}
	return g.busy - busy
}

// stripWall returns a campaign report's JSON with the wall-clock field
// removed and keys in canonical order.
func stripWall(raw json.RawMessage) []byte {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return raw
	}
	delete(m, "wall_ns")
	out, err := json.Marshal(m)
	if err != nil {
		return raw
	}
	return out
}

// verify runs each distinct spec single-node and compares the campaign
// counters (wall_ns removed) with the fleet's.
func (g *loadgen) verify() {
	for k := 0; k < fleetSpecs; k++ {
		got, ok := g.results[k]
		if !ok {
			continue
		}
		spec := jobSpec(g.op.seed, k)
		cfg := experiments.Quick()
		cfg.Seed = spec.Seed
		cfg.FlowDuration = time.Duration(spec.Duration)
		cfg.FlowsPerRow = spec.FlowsPerRow
		camp := telemetry.NewCampaign()
		cfg.Telemetry = camp
		if _, err := experiments.NewContextWith(context.Background(), cfg); err != nil {
			g.out.fail(g.op, "reference spec %d: %v", k, err)
			continue
		}
		want, err := json.Marshal(camp)
		if err != nil || !bytes.Equal(stripWall(want), stripWall(got)) {
			g.out.fail(g.op, "job spec %d: campaign counters differ from a single-node RunCampaign", k)
		}
	}
}

// fleetSetup starts a fleet and records the time until /readyz reports
// both workers healthy.
func fleetSetup(seed int64, setup *setups) (*fleet, error) {
	var f *fleet
	err := setup.time(func() error {
		var err error
		f, err = startFleet(seed)
		return err
	})
	return f, err
}

func runFleetJobs(op opts) (*outcome, error) {
	var setup setups
	f, err := fleetSetup(op.seed, &setup)
	if err != nil {
		return nil, err
	}
	g := newLoadgen(op, f)
	fl := floors{}
	walls, err := repeatRounds(op, 3, func() (time.Duration, error) {
		// One more start-up of a throwaway fleet per round, so the set-up
		// samples spread over the run.
		spare, err := fleetSetup(op.seed, &setup)
		if err == nil {
			err = spare.stop()
		}
		if err != nil {
			return 0, err
		}
		return g.round(nil, "", fl), nil
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	m := g.out.metrics
	m.set("setup_s", setup.fastest(), "s")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	roundStats(m, op, walls, fl)
	op.log("closed loop: %d jobs, %d rejected (429), client gap p50 %.4f ms",
		g.out.attempted, g.rejected, median(g.gapMs))
	if err := f.stop(); err != nil {
		return nil, err
	}
	g.verify()
	return g.out, nil
}

// fleetPairs is how many untraced/traced round pairs the traced run makes.
const fleetPairs = 12

// fleetJobsLayers alternates untraced and traced rounds (the tracing
// overhead), recording the units of the traced ones, and derives the serve,
// dist, telemetry and load-generator metrics from the traced rounds.
func fleetJobsLayers(op opts, tr *tracing.Trace, parent string) (*outcome, error) {
	f, err := fleetSetup(op.seed, &setups{})
	if err != nil {
		return nil, err
	}
	plain, traced := newLoadgen(op, f), newLoadgen(op, f)
	var units []unitRecord
	var dUnits, dRetries int64
	share, err := overheadShare(fleetPairs, func(on bool) (time.Duration, error) {
		if !on {
			return plain.round(nil, "", floors{}), nil
		}
		c0 := f.coord.Counters()
		f.units.record(tr, parent)
		d := traced.round(tr, parent, floors{})
		units = append(units, f.units.stopRecording()...)
		c1 := f.coord.Counters()
		dUnits += c1.Units - c0.Units
		dRetries += c1.Retries - c0.Retries
		return d, nil
	})
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	plain.verify()
	traced.verify()
	g := traced
	g.out.add(plain.out)

	m := g.out.metrics
	m.set("serve.queue_wait_ms_p50", median(g.waitMs), "ms")
	m.set("serve.result_bytes_per_job", median(g.bytes), "B")
	m.set("serve.scrape_ms_p50", median(g.scrapeMs), "ms")
	m.set("serve.rejected_429", float64(g.rejected+plain.rejected), "count")
	m.set("loadgen.gap_ms_p50", median(g.gapMs), "ms")
	m.set("dist.units", float64(dUnits), "count")
	m.set("dist.retries", float64(dRetries), "count")
	var rtt, overheadMs, size []float64
	for _, u := range units {
		rtt = append(rtt, ms(u.rtt))
		overheadMs = append(overheadMs, ms(u.rtt)-u.workerMs)
		size = append(size, float64(u.bytes))
	}
	m.set("dist.unit_rtt_ms_p50", median(rtt), "ms")
	m.set("dist.unit_overhead_ms_p50", median(overheadMs), "ms")
	m.set("dist.bytes_per_unit", median(size), "B")
	m.set("trace.overhead_share", share, "ratio")
	mergeUs, exposeUs, err := telemetryCosts(units)
	if err != nil {
		return nil, err
	}
	m.set("telemetry.merge_us_per_flow", mergeUs, "us")
	m.set("telemetry.expose_us", exposeUs, "us")
	return g.out, nil
}

// telemetryCosts replays the recorded units' per-flow telemetry states into
// a campaign (the coordinator's merge) and exposes the result as /metrics
// text, timing both.
func telemetryCosts(units []unitRecord) (mergeUs, exposeUs float64, err error) {
	var states []telemetry.FlowState
	for _, u := range units {
		var ev serve.Event
		if err := json.Unmarshal(u.terminal, &ev); err != nil {
			return 0, 0, fmt.Errorf("unit terminal event: %w", err)
		}
		if ev.Unit == nil {
			return 0, 0, errors.New("unit terminal event without a unit result")
		}
		for _, fl := range ev.Unit.Flows {
			if fl.Flow.Telemetry == nil {
				return 0, 0, errors.New("unit flow without telemetry state")
			}
			states = append(states, *fl.Flow.Telemetry)
		}
	}
	if len(states) == 0 {
		return 0, 0, errors.New("no unit flows recorded")
	}
	var merge, expose []float64
	for rep := 0; rep < 5; rep++ {
		camp := telemetry.NewCampaign()
		start := time.Now()
		for i := range states {
			camp.AddFlow(states[i].Restore())
		}
		merge = append(merge, float64(time.Since(start))/1e3/float64(len(states)))
		var b bytes.Buffer
		start = time.Now()
		x := telemetry.NewTextExposer(&b, "perfbench_")
		x.Campaign(camp)
		if err := x.Flush(); err != nil {
			return 0, 0, err
		}
		expose = append(expose, float64(time.Since(start))/1e3)
	}
	return median(merge), median(expose), nil
}

// unitRecord is one unit dispatch as the coordinator's transport saw it.
type unitRecord struct {
	rtt      time.Duration
	bytes    int
	workerMs float64
	terminal []byte
}

// unitTimer is the coordinator's fleet transport. While recording it times
// every unit POST from request to the close of the response body, counts
// the response bytes, keeps the terminal event, and records a unit span.
type unitTimer struct {
	base *http.Transport
	mu   sync.Mutex
	on   atomic.Bool
	tr   *tracing.Trace
	par  string
	recs []unitRecord
}

func (u *unitTimer) record(tr *tracing.Trace, parent string) {
	u.mu.Lock()
	u.tr, u.par, u.recs = tr, parent, nil
	u.mu.Unlock()
	u.on.Store(true)
}

func (u *unitTimer) stopRecording() []unitRecord {
	u.on.Store(false)
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.recs
}

func (u *unitTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	if !u.on.Load() || req.Method != http.MethodPost || req.URL.Path != "/v1/jobs" {
		return u.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := u.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &timedBody{rc: resp.Body, u: u, start: start}
	return resp, nil
}

// timedBody buffers a unit response and reports it on Close.
type timedBody struct {
	rc    io.ReadCloser
	u     *unitTimer
	start time.Time
	buf   bytes.Buffer
	once  sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.buf.Write(p[:n])
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() {
		rtt := time.Since(b.start)
		rec := unitRecord{rtt: rtt, bytes: b.buf.Len()}
		raw := bytes.TrimSpace(b.buf.Bytes())
		if i := bytes.LastIndexByte(raw, '\n'); i >= 0 {
			raw = raw[i+1:]
		}
		var ev serve.Event
		if json.Unmarshal(raw, &ev) == nil && ev.Event == "result" {
			rec.workerMs = ev.ElapsedMS
			rec.terminal = append([]byte(nil), raw...)
		}
		b.u.mu.Lock()
		if rec.terminal != nil {
			sp := b.u.tr.StartSpanAt(b.u.par, "unit", "POST /v1/jobs", b.start)
			sp.End()
			b.u.recs = append(b.u.recs, rec)
		}
		b.u.mu.Unlock()
	})
	return err
}
