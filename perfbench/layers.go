package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracing"
)

// The flow-layer profile. For a few flows drawn from the workload's inputs
// it (1) rebuilds each flow from the public calls dataset.RunFlowMetrics
// makes, with the analyzer behind a timing recorder, and checks the result
// equals RunFlowMetrics; (2) reads the per-flow counts from the flow's
// telemetry; (3) replays the recorded flow through isolated drivers of the
// kernel, the channel cursors, the links, the TCP endpoints and the
// analyzer to get a unit cost per layer; and (4) reports how much of the
// flow's wall time those unit costs times the counts leave unexplained.

// driverReps is how often each isolated driver replays a flow; the fastest
// run is kept, as the end-to-end floors keep each operation's fastest.
const driverReps = 25

// flowSample returns the profiled flows of a workload: the first flow of
// every Table I row of the workload's first campaign.
func flowSample(workload string, seed int64) []dataset.Scenario {
	var cfg dataset.CampaignConfig
	switch workload {
	case "cached-sweep":
		cfg = newSweepPlan(seed).next().pt.campaignConfig(nil)
	case "fleet-jobs":
		spec := jobSpec(seed, 0)
		cfg = dataset.CampaignConfig{Seed: spec.Seed, FlowDuration: time.Duration(spec.Duration), FlowsPerRow: spec.FlowsPerRow}
	default:
		cfg = dataset.CampaignConfig{Seed: seed, FlowDuration: suiteConfig(seed).FlowDuration}
	}
	plan, err := dataset.PlanCampaign(cfg)
	if err != nil {
		panic(err) // the configurations above are valid by construction
	}
	var out []dataset.Scenario
	seen := map[string]bool{}
	for _, pf := range plan {
		key := pf.Row.Month + pf.Row.Operator.Name
		if !seen[key] {
			seen[key] = true
			out = append(out, pf.Scenario)
		}
	}
	return out
}

// nop is a handler that does nothing.
type nop struct{}

func (nop) Fire() {}

// discard is a path stage that accepts and silently drops every packet, so
// the TCP driver runs the endpoints without any link below them.
type discard struct{}

func (discard) Send(int, netem.Handler) (bool, netem.DropKind) { return true, 0 }

// timingRecorder forwards events to the analyzer and sums the time spent
// in it.
type timingRecorder struct {
	inner trace.Recorder
	ns    time.Duration
}

func (r *timingRecorder) Record(ev trace.Event) {
	start := time.Now()
	r.inner.Record(ev)
	r.ns += time.Since(start)
}

// flowBudget mirrors the kernel event budget runScenario grants a flow.
func flowBudget(sc dataset.Scenario) int64 {
	return int64((sc.FlowDuration+time.Minute)/time.Second) * 2_000_000
}

// rebuildFlow runs sc through the same public calls runScenario makes,
// with the analyzer wrapped in a timing recorder (its time goes on the flow
// span) and the events captured, and returns the metrics and the trace.
func rebuildFlow(sc dataset.Scenario, tr *tracing.Trace, parent string) (*analysis.FlowMetrics, *trace.FlowTrace, error) {
	sp := tr.StartSpan(parent, "flow", sc.ID)
	defer sp.End()
	simulator := sim.New()
	simulator.SetBudget(sim.Budget{MaxEvents: flowBudget(sc)})
	bsp := tr.StartSpan(sp.ID(), "dataset", "BuildPath")
	path, _, err := dataset.BuildPath(simulator, sc)
	bsp.End()
	if err != nil {
		return nil, nil, err
	}
	inc := analysis.NewIncremental(sc.FlowMeta())
	timing := &timingRecorder{inner: inc}
	ft := &trace.FlowTrace{Meta: sc.FlowMeta()}
	conn, err := tcp.New(simulator, path, sc.TCP, trace.Tee{timing, ft})
	if err != nil {
		return nil, nil, err
	}
	if err := conn.Start(sc.FlowDuration); err != nil {
		return nil, nil, err
	}
	rsp := tr.StartSpan(sp.ID(), "sim", "RunUntil")
	simulator.RunUntil(sc.FlowDuration)
	rsp.SetVirtual(0, int64(simulator.Now()))
	rsp.End()
	if simulator.Exhausted() {
		return nil, nil, fmt.Errorf("flow %s exhausted its kernel budget", sc.ID)
	}
	m, err := inc.Finish()
	if err != nil {
		return nil, nil, err
	}
	sp.SetAttr("analysis_ns", fmt.Sprint(int64(timing.ns)))
	return m, ft, nil
}

// schedule replays a list of virtual instants through the kernel, one
// event at a time in a causal chain (each firing schedules the next), and
// calls act at each instant.
type schedule struct {
	s   *sim.Simulator
	at  []time.Duration
	i   int
	act func(i int)
}

func (c *schedule) Fire() {
	if c.act != nil {
		c.act(c.i)
	}
	c.i++
	if c.i < len(c.at) {
		c.s.AtFire(c.at[c.i], c)
	}
}

// replay runs the chain on a fresh simulator (or s, when non-nil) and
// returns its wall time.
func replay(s *sim.Simulator, at []time.Duration, until time.Duration, act func(int)) time.Duration {
	if s == nil {
		s = sim.New()
	}
	start := time.Now()
	if len(at) > 0 {
		c := &schedule{s: s, at: at, act: act}
		s.AtFire(at[0], c)
		s.RunUntil(until)
	}
	return time.Since(start)
}

// driver is one timed call into a layer; the profile keeps its fastest run.
type driver struct {
	layer, name string
	run         func() (time.Duration, error)
	best        time.Duration
}

// flowProfile is one profiled flow: its telemetry counts, the drivers that
// replay it, and what the drivers' own kernels dispatched beyond their
// replay chains.
type flowProfile struct {
	sc     dataset.Scenario
	tel    *telemetry.Flow
	events int // trace events
	// queries, packets and acks are what the drivers replay.
	queries, packets, acks int
	// scheduled and timers are the kernel events the netem and TCP drivers'
	// paths and endpoints scheduled themselves.
	scheduled, timers int64
	allocs            float64

	flow, sim, compile, query, netem, netemBase, tcp, tcpBase, ana, batch *driver
}

func (p *flowProfile) drivers() []*driver {
	return []*driver{p.flow, p.sim, p.compile, p.query, p.netem, p.netemBase, p.tcp, p.tcpBase, p.ana, p.batch}
}

// costs are the profile's unit-cost numerators in ns: the fastest run of
// each driver, with what belongs to another layer taken off.
func (p *flowProfile) costs() (flow, simNs, compile, query, netemNs, tcpNs, ana, batch float64) {
	perEvent := float64(p.sim.best) / float64(p.events)
	netemNs = float64(p.netem.best-p.netemBase.best) - float64(p.scheduled)*perEvent
	tcpNs = float64(p.tcp.best-p.tcpBase.best) - float64(p.timers)*perEvent
	return float64(p.flow.best), float64(p.sim.best), float64(p.compile.best), float64(p.query.best),
		netemNs, tcpNs, float64(p.ana.best), float64(p.batch.best)
}

func flowLayers(op opts, tr *tracing.Trace, parent string, scs []dataset.Scenario) (*outcome, error) {
	out := &outcome{metrics: metrics{}}
	var profiles []*flowProfile
	for _, sc := range scs {
		out.attempted++
		p, ok, err := profileFlow(tr, parent, sc)
		if err != nil {
			return nil, fmt.Errorf("flow %s: %w", sc.ID, err)
		}
		if !ok {
			out.fail(op, "flow %s: rebuilt flow differs from RunFlowMetrics", sc.ID)
		}
		profiles = append(profiles, p)
	}
	// Every repetition runs every driver of every flow once, so each
	// driver's fastest run has driverReps chances, spread over the whole
	// profile, to fall in the host's fast state, and all of them do.
	for rep := 0; rep < driverReps; rep++ {
		for _, p := range profiles {
			for _, d := range p.drivers() {
				sp := tr.StartSpan(parent, d.layer, p.sc.ID+" "+d.name)
				t, err := d.run()
				sp.End()
				if err != nil {
					return nil, fmt.Errorf("flow %s: %s driver: %w", p.sc.ID, d.layer, err)
				}
				if rep == 0 || t < d.best {
					d.best = t
				}
			}
		}
	}

	var kEvents, kBatches, kBatchEv, queries, fallbacks, compiles, packets, vector, dataOffered, acks, events int64
	var retx, sent int64
	var simT, simN, qT, qN, nT, nN, tT, tN, aT, aN, bT float64
	var flowMs, allocs, unexplained, compileUs []float64
	for _, p := range profiles {
		k := p.tel.Kernel
		kEvents += k.Events
		kBatches += k.Batches
		kBatchEv += k.BatchEvents
		queries += p.tel.Channel.CursorQueries
		fallbacks += p.tel.Channel.CursorFallbacks
		compiles += p.tel.Channel.Compiles
		packets += p.tel.Net.Data.Offered + p.tel.Net.Ack.Offered
		vector += p.tel.Net.Data.VectorPackets
		dataOffered += p.tel.Net.Data.Offered
		acks += p.tel.TCP.AcksReceived
		retx += p.tel.TCP.Retransmissions
		sent += p.tel.TCP.DataSent
		events += int64(p.events)
		flow, simNs, compile, query, netemNs, tcpNs, ana, batch := p.costs()
		simT += simNs
		simN += float64(p.events)
		qT += query
		qN += float64(p.queries)
		nT += netemNs
		nN += float64(p.packets)
		tT += tcpNs
		tN += float64(p.acks)
		aT += ana
		aN += float64(p.events)
		bT += batch
		flowMs = append(flowMs, flow/1e6)
		allocs = append(allocs, p.allocs)
		compileUs = append(compileUs, compile/1e3)
	}
	simUnit, qUnit, nUnit, tUnit, aUnit := simT/simN, qT/qN, nT/nN, tT/tN, aT/aN
	for _, p := range profiles {
		k := p.tel
		flow, _, compile, _, _, _, _, _ := p.costs()
		explained := simUnit*float64(k.Kernel.Events) +
			nUnit*float64(k.Net.Data.Offered+k.Net.Ack.Offered) +
			tUnit*float64(k.TCP.AcksReceived) +
			aUnit*float64(p.events) +
			compile
		unexplained = append(unexplained, 1-explained/flow)
	}
	m := out.metrics
	m.set("sim.events", float64(kEvents), "count")
	m.set("sim.ns_per_event", simUnit, "ns")
	m.set("sim.events_per_batch", float64(kBatchEv)/float64(kBatches), "events")
	m.set("cellular.queries", float64(queries), "count")
	m.set("cellular.ns_per_query", qUnit, "ns")
	m.set("cellular.compile_us_per_flow", median(compileUs), "us")
	m.set("cellular.fallback_share", float64(fallbacks)/float64(queries), "ratio")
	m.set("netem.packets", float64(packets), "count")
	m.set("netem.ns_per_packet", nUnit, "ns")
	m.set("netem.vector_share", float64(vector)/float64(dataOffered), "ratio")
	m.set("tcp.acks", float64(acks), "count")
	m.set("tcp.ns_per_ack", tUnit, "ns")
	m.set("tcp.retx_share", float64(retx)/float64(sent), "ratio")
	m.set("analysis.events", float64(events), "count")
	m.set("analysis.ns_per_event", aUnit, "ns")
	m.set("analysis.batch_ns_per_event", bT/aN, "ns")
	m.set("dataset.flows", float64(len(profiles)), "count")
	m.set("dataset.flow_ms_p50", median(flowMs), "ms")
	m.set("dataset.allocs_per_flow", median(allocs), "count")
	m.set("dataset.unexplained_share", median(unexplained), "ratio")
	op.log("flow layers: %d flows, %d channel compiles; unexplained share per flow %v", len(profiles), compiles, unexplained)
	return out, nil
}

// profileFlow records one flow and builds its drivers. ok is false when
// the rebuilt flow's metrics, or the pooled analyzer's replay of its
// events, differ from dataset.RunFlowMetrics.
func profileFlow(tr *tracing.Trace, parent string, sc dataset.Scenario) (*flowProfile, bool, error) {
	want, _, err := dataset.RunFlowMetrics(sc)
	if err != nil {
		return nil, false, err
	}
	withTel := sc
	withTel.Telemetry = telemetry.NewFlow()
	if _, _, err := dataset.RunFlowMetrics(withTel); err != nil {
		return nil, false, err
	}
	p := &flowProfile{sc: sc, tel: withTel.Telemetry, allocs: flowAllocs(sc)}
	p.flow = &driver{layer: "dataset", name: "RunFlowMetrics", run: func() (time.Duration, error) {
		start := time.Now()
		_, _, err := dataset.RunFlowMetrics(sc)
		return time.Since(start), err
	}}

	got, ft, err := rebuildFlow(sc, tr, parent)
	if err != nil {
		return nil, false, err
	}
	ok := reflect.DeepEqual(got, want)
	p.events = len(ft.Events)
	if err := p.buildDrivers(ft); err != nil {
		return nil, false, err
	}
	inc := analysis.AcquireIncremental(sc.FlowMeta())
	for _, ev := range ft.Events {
		inc.Record(ev)
	}
	replayed, err := inc.Finish()
	inc.Release()
	if err != nil {
		return nil, false, err
	}
	return p, ok && reflect.DeepEqual(replayed, want), nil
}

// flowAllocs counts heap allocations of one RunFlowMetrics call after a
// forced GC and one warm-up call (so pools are refilled), taking the
// minimum of three measurements so a GC cycle that starts inside the
// measured call cannot inflate the count.
func flowAllocs(sc dataset.Scenario) float64 {
	best := -1.0
	for i := 0; i < 3; i++ {
		runtime.GC()
		dataset.RunFlowMetrics(sc)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		dataset.RunFlowMetrics(sc)
		runtime.ReadMemStats(&m1)
		n := float64(m1.Mallocs - m0.Mallocs)
		if best < 0 || n < best {
			best = n
		}
	}
	return best
}

// timed wraps fn as a driver run that times all of fn.
func timed(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
}

// buildDrivers builds the isolated drivers that replay the captured flow.
func (p *flowProfile) buildDrivers(ft *trace.FlowTrace) error {
	sc := p.sc
	until := sc.FlowDuration + time.Minute
	evs := ft.Events
	times := make([]time.Duration, len(evs))
	for i, ev := range evs {
		times[i] = ev.At
	}
	// Kernel: one schedule and one dispatch per recorded event.
	p.sim = &driver{layer: "sim", name: "replay", run: func() (time.Duration, error) {
		return replay(nil, times, until, nil), nil
	}}

	// Channel: compile, then cursor queries at the recorded send instants.
	horizon := sc.FlowDuration + time.Minute
	newChannel := func() (*cellular.Channel, error) {
		ch, err := cellular.NewChannel(sc.Operator, sc.Trip, sc.TripOffset, horizon, sim.NewRand(sc.Seed, sim.StreamHandoff))
		if err != nil {
			return nil, err
		}
		if !sc.Faults.Empty() {
			ch.AddOutages(sc.Faults.StormOutages(sc.Seed))
		}
		return ch, nil
	}
	p.compile = &driver{layer: "cellular", name: "compile", run: timed(func() error {
		_, err := newChannel()
		return err
	})}
	ch, err := newChannel()
	if err != nil {
		return err
	}
	op := sc.Operator
	for _, ev := range evs {
		if ev.Type == trace.EvDataSend || ev.Type == trace.EvAckSend {
			p.queries += 2
		}
	}
	var sink float64
	p.query = &driver{layer: "cellular", name: "queries", run: timed(func() error {
		dataLoss, ackLoss, delay := ch.DataLossCursor(), ch.AckLossCursor(), ch.DelayCursor()
		for _, ev := range evs {
			switch ev.Type {
			case trace.EvDataSend:
				sink += dataLoss(ev.At, ev.At+op.DownDelay)
				sink += float64(delay(ev.At))
			case trace.EvAckSend:
				sink += ackLoss(ev.At, ev.At+op.UpDelay)
				sink += float64(delay(ev.At))
			}
		}
		if sink < 0 {
			return fmt.Errorf("negative channel query sum")
		}
		return nil
	})}

	// Links: the recorded data bursts (same-instant sends) through
	// BeginBurstN + Burst.Send and the recorded ACKs through Send, on the
	// flow's own links. The bare kernel chain and the kernel's dispatch of
	// every event the path schedules (deliveries, and the events of fault
	// stages) are subtracted: both are sim's, and sim.events counts them.
	type group struct {
		at         time.Duration
		data, acks int
	}
	var groups []group
	for _, ev := range evs {
		if ev.Type != trace.EvDataSend && ev.Type != trace.EvAckSend {
			continue
		}
		if len(groups) == 0 || groups[len(groups)-1].at != ev.At {
			groups = append(groups, group{at: ev.At})
		}
		g := &groups[len(groups)-1]
		if ev.Type == trace.EvDataSend {
			g.data++
		} else {
			g.acks++
		}
	}
	gTimes := make([]time.Duration, len(groups))
	for i, g := range groups {
		gTimes[i] = g.at
		p.packets += g.data + g.acks
	}
	dataSize, ackSize := sc.TCP.MSS+sc.TCP.HeaderBytes, sc.TCP.HeaderBytes
	p.netem = &driver{layer: "netem", name: "replay", run: func() (time.Duration, error) {
		s := sim.New()
		path, _, err := dataset.BuildPath(s, sc)
		if err != nil {
			return 0, err
		}
		fwd, ok1 := path.Forward.(*netem.Link)
		rev, ok2 := path.Reverse.(*netem.Link)
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("path stages are not links")
		}
		d := replay(s, gTimes, until, func(i int) {
			g := groups[i]
			if g.data > 0 {
				b := fwd.BeginBurstN(dataSize, g.data)
				for k := 0; k < g.data; k++ {
					b.Send(nop{})
				}
			}
			for k := 0; k < g.acks; k++ {
				rev.Send(ackSize, nop{})
			}
		})
		p.scheduled = s.Executed() - int64(len(gTimes))
		return d, nil
	}}
	p.netemBase = &driver{layer: "netem", name: "chain", run: func() (time.Duration, error) {
		return replay(nil, gTimes, until, func(int) {}), nil
	}}

	// TCP: both endpoints over a discarding path, fed the recorded data
	// arrivals (DeliverData) and ACK arrivals (InjectAck). The endpoints'
	// own timers are kernel events the chain did not schedule; sim.events
	// counts them already, so their dispatch is sim's.
	var tcpTimes []time.Duration
	var tcpEvs []trace.Event
	for _, ev := range evs {
		if ev.Type == trace.EvDataRecv || ev.Type == trace.EvAckRecv {
			tcpTimes = append(tcpTimes, ev.At)
			tcpEvs = append(tcpEvs, ev)
			if ev.Type == trace.EvAckRecv {
				p.acks++
			}
		}
	}
	p.tcp = &driver{layer: "tcp", name: "replay", run: func() (time.Duration, error) {
		s := sim.New()
		conn, err := tcp.New(s, netem.NewPath(discard{}, discard{}), sc.TCP, trace.Nop{})
		if err != nil {
			return 0, err
		}
		if err := conn.Start(sc.FlowDuration); err != nil {
			return 0, err
		}
		d := replay(s, tcpTimes, until, func(i int) {
			ev := tcpEvs[i]
			if ev.Type == trace.EvDataRecv {
				conn.DeliverData(ev.Seq, ev.TransmitNo)
			} else {
				conn.InjectAck(ev.Ack)
			}
		})
		p.timers = s.Executed() - int64(len(tcpTimes))
		return d, nil
	}}
	p.tcpBase = &driver{layer: "tcp", name: "chain", run: func() (time.Duration, error) {
		return replay(nil, tcpTimes, until, func(int) {}), nil
	}}

	// Analyzer: the streaming path (pooled Incremental) and the batch path.
	p.ana = &driver{layer: "analysis", name: "Incremental", run: timed(func() error {
		inc := analysis.AcquireIncremental(sc.FlowMeta())
		defer inc.Release()
		for _, ev := range evs {
			inc.Record(ev)
		}
		_, err := inc.Finish()
		return err
	})}
	p.batch = &driver{layer: "analysis", name: "Analyze", run: timed(func() error {
		_, err := analysis.Analyze(ft)
		return err
	})}
	return nil
}
