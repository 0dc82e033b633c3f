// Package dataset assembles complete measurement scenarios — a railway
// trip, a carrier's cellular channel, the emulated links and a TCP flow —
// and runs whole measurement campaigns shaped like the paper's Table I
// dataset (255 flows across China Mobile LTE, China Unicom 3G and China
// Telecom 3G, January and October 2015), plus the stationary baseline the
// paper compares against.
//
// Real HSR rides obviously cannot be re-run; the campaign synthesizes the
// same structure (trips x carriers x flows) with deterministic per-flow
// seeds so every experiment is reproducible bit for bit.
package dataset

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/railway"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Scenario is the full environment of one simulated flow.
type Scenario struct {
	ID           string
	Operator     cellular.Operator
	Trip         railway.Trip
	TripOffset   time.Duration // where in the trip the flow starts
	FlowDuration time.Duration
	Seed         int64
	TCP          tcp.Config
	Scenario     string // "hsr" or "stationary" (trace metadata)
	// Faults, when non-empty, injects the schedule's fault episodes into the
	// flow's path: storms become extra channel outages, blackouts and ACK
	// bursts layer onto the loss models, rate collapses scale the line rate,
	// delay spikes inflate latency. All fault randomness derives from Seed
	// on dedicated streams, so faulted flows stay bit-for-bit reproducible.
	Faults *faults.Schedule
	// Telemetry, when non-nil, collects the flow's full metrics bundle
	// (kernel, endpoint, link and fault counters). Attaching it never
	// changes the packet trace: live instrumentation is nil-gated integer
	// increments and everything else is harvested after the run.
	Telemetry *telemetry.Flow
	// FlightRecorder, when non-nil, additionally records the flow's events
	// into a bounded ring (state transitions only by default) that can be
	// dumped as a JSONL trace after the run.
	FlightRecorder *telemetry.FlightRecorder
}

// Validate checks the scenario.
func (sc Scenario) Validate() error {
	if sc.FlowDuration <= 0 {
		return fmt.Errorf("dataset: flow duration %v must be positive", sc.FlowDuration)
	}
	if sc.TripOffset < 0 {
		return fmt.Errorf("dataset: trip offset %v must be non-negative", sc.TripOffset)
	}
	if err := sc.Operator.Validate(); err != nil {
		return err
	}
	if err := sc.Faults.Validate(); err != nil {
		return err
	}
	return sc.TCP.Validate()
}

// simEventBudgetPerSecond is the kernel event budget granted per simulated
// second (plus a minute of slack). Real flows execute a few thousand events
// per simulated second; two million leaves three orders of magnitude of
// headroom while still catching a pathological schedule that spins at
// constant virtual time.
const simEventBudgetPerSecond = 2_000_000

// FlowMeta returns the trace metadata describing the scenario's flow.
func (sc Scenario) FlowMeta() trace.FlowMeta {
	return trace.FlowMeta{
		ID:          sc.ID,
		Operator:    sc.Operator.Name,
		Tech:        sc.Operator.Tech.String(),
		Scenario:    sc.Scenario,
		Seed:        sc.Seed,
		MSS:         sc.TCP.MSS,
		DelayedAckB: sc.TCP.DelayedAckB,
		WindowLimit: sc.TCP.WindowLimit,
		Duration:    sc.FlowDuration,
	}
}

// Flow is one TCP connection of a simulation run: the scenario it runs
// under, where its packet events go and how it starts.
type Flow struct {
	Scenario Scenario
	// Recorder receives the flow's packet events; nil discards them.
	Recorder trace.Recorder
	// Segments, when positive, makes the flow a fixed-size transfer of that
	// many segments (tcp.Conn.StartSized) with Scenario.FlowDuration as its
	// horizon; zero sends bulk data for Scenario.FlowDuration.
	Segments int64
	// Wire, when non-nil, runs on the run's simulator after the connection
	// is built and before it starts (mptcp backup mode attaches its backup
	// path and hooks here).
	Wire func(*sim.Simulator, *tcp.Conn) error

	// conn and stage are what the run built for the flow.
	conn  *tcp.Conn
	stage stage
}

// stage is one flow's private path stage: the downlink (data) and uplink
// (ACK) links carrying its channel's loss and delay, and the channel.
type stage struct {
	fwd, rev *netem.Link
	ch       *cellular.Channel
}

// buildStage wires one flow's private stage: its cellular channel, loss and
// delay models and fault schedule. With lineRate the links also carry the
// operator's line rate, queue and the schedule's rate collapse; without it
// they only lose and delay, for chaining into a shared bottleneck.
func buildStage(simulator *sim.Simulator, sc Scenario, lineRate bool) (stage, error) {
	horizon := sc.FlowDuration + time.Minute // slack for in-flight cleanup
	ch, err := cellular.NewChannel(sc.Operator, sc.Trip, sc.TripOffset, horizon, sim.NewRand(sc.Seed, sim.StreamHandoff))
	if err != nil {
		return stage{}, err
	}
	faulted := !sc.Faults.Empty()
	if faulted {
		ch.AddOutages(sc.Faults.StormOutages(sc.Seed))
	}
	op := sc.Operator
	// Each per-packet consumer gets its own timeline cursor (O(1) amortized
	// for the mostly monotone query series a flow produces).
	dataLoss := netem.LossModel(netem.NewTransitLossFunc(ch.DataLossCursor(), sim.NewRand(sc.Seed, sim.StreamDataLoss)))
	ackLoss := netem.LossModel(netem.NewTransitLossFunc(ch.AckLossCursor(), sim.NewRand(sc.Seed, sim.StreamAckLoss)))
	fwdDelay := netem.DelayModel(netem.NewSumDelay(
		netem.NewUniformDelay(op.DownDelay, op.Jitter, sim.NewRand(sc.Seed, sim.StreamDelay)),
		netem.DelayFunc{Fn: ch.DelayCursor()},
	))
	revDelay := netem.DelayModel(netem.NewSumDelay(
		netem.NewUniformDelay(op.UpDelay, op.Jitter, sim.NewRand(sc.Seed, sim.StreamDelay+1000)),
		netem.DelayFunc{Fn: ch.DelayCursor()},
	))
	var rateScale func(time.Duration) float64
	if faulted {
		var dataDrops, ackDrops *int64
		if sc.Telemetry != nil {
			dataDrops = &sc.Telemetry.Faults.DataDrops
			ackDrops = &sc.Telemetry.Faults.AckDrops
		}
		dataLoss = sc.Faults.WrapDataLoss(dataLoss, sim.NewRand(sc.Seed, sim.StreamFaultData), dataDrops)
		ackLoss = sc.Faults.WrapAckLoss(ackLoss, sim.NewRand(sc.Seed, sim.StreamFaultAck), ackDrops)
		fwdDelay = sc.Faults.WrapDelay(fwdDelay)
		revDelay = sc.Faults.WrapDelay(revDelay)
		rateScale = sc.Faults.RateScale
	}
	fwd := netem.LinkConfig{Delay: fwdDelay, Loss: dataLoss}
	rev := netem.LinkConfig{Delay: revDelay, Loss: ackLoss}
	if lineRate {
		fwd.Rate, fwd.RateScale, fwd.MaxQueue = op.DownlinkRate, rateScale, op.QueuePackets
		rev.Rate, rev.RateScale, rev.MaxQueue = op.UplinkRate, rateScale, op.QueuePackets
	}
	return stage{fwd: netem.NewLink(simulator, fwd), rev: netem.NewLink(simulator, rev), ch: ch}, nil
}

// BuildPath constructs one scenario's emulated path (downlink data + uplink
// ACK, at the operator's line rate and queue) on the given simulator, with
// the scenario's fault schedule layered over the channel and both links.
func BuildPath(simulator *sim.Simulator, sc Scenario) (*netem.Path, *cellular.Channel, error) {
	st, err := buildStage(simulator, sc, true)
	if err != nil {
		return nil, nil, err
	}
	return netem.NewPath(st.fwd, st.rev), st.ch, nil
}

// run is the one place that builds a simulator and TCP connections for
// cellular flows. It creates the simulator and its event budget, builds each
// flow's private stage at the operator's line rate or, when shared, chained
// into one netem.Bottleneck sized by the first flow's operator, creates the
// connections, starts them in flow order, runs to the longest horizon, and
// harvests telemetry for flows that carry a bundle. Construction schedules
// nothing, so the events are those of building and starting each flow in
// turn. Only a lone flow's bundle gets the (shared) kernel counters.
func run(flows []Flow, shared bool) error {
	if len(flows) == 0 {
		return fmt.Errorf("dataset: a run needs at least one flow")
	}
	op := flows[0].Scenario.Operator
	var horizon time.Duration
	for i := range flows {
		sc := &flows[i].Scenario
		if err := sc.Validate(); err != nil {
			return err
		}
		if shared && sc.Operator.Name != op.Name {
			return fmt.Errorf("dataset: flows sharing a cell must share one operator (%s vs %s)",
				op.Name, sc.Operator.Name)
		}
		horizon = max(horizon, sc.FlowDuration)
	}
	wallStart := time.Now()
	simulator := sim.New()
	budget := int64(len(flows)) * int64((horizon+time.Minute)/time.Second) * simEventBudgetPerSecond
	simulator.SetBudget(sim.Budget{MaxEvents: budget})
	var kernel *telemetry.Kernel
	if len(flows) == 1 && flows[0].Scenario.Telemetry != nil {
		kernel = &flows[0].Scenario.Telemetry.Kernel
		simulator.SetTelemetry(kernel)
	}
	var cell *netem.Bottleneck
	if shared {
		var err error
		cell, err = netem.NewBottleneck(simulator, netem.BottleneckConfig{
			DownRate: op.DownlinkRate, UpRate: op.UplinkRate, Queue: op.QueuePackets,
		})
		if err != nil {
			return err
		}
	}

	for i := range flows {
		f := &flows[i]
		st, err := buildStage(simulator, f.Scenario, !shared)
		if err != nil {
			return err
		}
		path := netem.NewPath(st.fwd, st.rev)
		if shared {
			path = cell.FlowPath(st.fwd, st.rev)
		}
		rec := f.Recorder
		if rec == nil {
			rec = trace.Nop{}
		}
		if f.Scenario.FlightRecorder != nil {
			rec = trace.Tee{rec, f.Scenario.FlightRecorder}
		}
		conn, err := tcp.New(simulator, path, f.Scenario.TCP, rec)
		if err != nil {
			return err
		}
		if tel := f.Scenario.Telemetry; tel != nil {
			conn.SetTelemetry(&tel.TCP)
		}
		if f.Wire != nil {
			if err := f.Wire(simulator, conn); err != nil {
				return err
			}
		}
		f.conn, f.stage = conn, st
	}
	for i := range flows {
		f := &flows[i]
		var err error
		if f.Segments > 0 {
			err = f.conn.StartSized(f.Segments, f.Scenario.FlowDuration)
		} else {
			err = f.conn.Start(f.Scenario.FlowDuration)
		}
		if err != nil {
			return err
		}
	}

	simulator.RunUntil(horizon)
	if simulator.Exhausted() {
		what := "flow " + flows[0].Scenario.ID
		if len(flows) > 1 {
			what = fmt.Sprintf("group of %d flows", len(flows))
		}
		return fmt.Errorf("dataset: %s exhausted its %d-event kernel budget at t=%v (runaway schedule?)",
			what, budget, simulator.Now())
	}
	if kernel != nil {
		kernel.VirtualNS = int64(simulator.Now())
		kernel.BudgetEvents = budget
	}
	for i := range flows {
		if flows[i].Scenario.Telemetry != nil {
			harvestFlow(&flows[i], wallStart)
		}
	}
	return nil
}

// RunSolo simulates one flow on its own path at the operator's line rate
// and returns its finished connection, for callers that read the endpoint
// itself (counters, sized-flow completion) rather than a trace or metrics.
func RunSolo(f Flow) (*tcp.Conn, error) {
	flows := [1]Flow{f}
	if err := run(flows[:], false); err != nil {
		return nil, err
	}
	return flows[0].conn, nil
}

// RunContended simulates every flow inside one simulator over one shared
// cell (a netem.Bottleneck sized by their common operator) and returns the
// finished connections in flow order. Each flow keeps its own channel, seed
// streams, faults and congestion control; their packets contend for the
// cell's queues. One simulator makes the outcome bit-identical at any -jobs
// or worker count.
func RunContended(flows []Flow) ([]*tcp.Conn, error) {
	if err := run(flows, true); err != nil {
		return nil, err
	}
	conns := make([]*tcp.Conn, len(flows))
	for i := range flows {
		conns[i] = flows[i].conn
	}
	return conns, nil
}

// JainIndex computes Jain's fairness index (sum x)^2 / (n * sum x^2) over
// per-flow throughputs: 1 is perfectly fair, 1/n is maximally unfair.
// Empty or all-zero inputs return 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// RunFlow simulates one scenario end to end and returns its complete packet
// trace and the endpoint counters. Use it when the events themselves are the
// product (CSV export, tracegen, figure rendering); callers that only need
// metrics should use RunFlowMetrics, which never materializes the event
// list.
func RunFlow(sc Scenario) (*trace.FlowTrace, tcp.Stats, error) {
	ft := &trace.FlowTrace{Meta: sc.FlowMeta()}
	// A materialized flow produces on the order of a thousand events per
	// flow-second (four per delivered packet, operator-dependent); reserving
	// that up front replaces log2(n) append doublings — each a full copy of
	// a multi-megabyte list — with at most one growth.
	ft.Grow(int(sc.FlowDuration/time.Second+1) * 1200)
	conn, err := RunSolo(Flow{Scenario: sc, Recorder: ft})
	if err != nil {
		return nil, tcp.Stats{}, err
	}
	return ft, conn.Stats(), nil
}

// RunFlowMetrics simulates one scenario and reduces it to FlowMetrics
// online: packet events stream into a pooled incremental analyzer as the
// simulation produces them, so peak memory is independent of flow length
// and the analyzer's tables are reused across flows. The metrics are
// identical to analyzing the materialized trace of the same scenario.
func RunFlowMetrics(sc Scenario) (*analysis.FlowMetrics, tcp.Stats, error) {
	inc := analysis.AcquireIncremental(sc.FlowMeta())
	defer inc.Release()
	conn, err := RunSolo(Flow{Scenario: sc, Recorder: inc})
	if err != nil {
		return nil, tcp.Stats{}, err
	}
	m, err := inc.Finish()
	if err != nil {
		return nil, tcp.Stats{}, err
	}
	return m, conn.Stats(), nil
}

// harvestFlow fills a flow's telemetry bundle after its run: its private
// stage's link counters, channel and fault activity, and the endpoint flush.
func harvestFlow(f *Flow, wallStart time.Time) {
	tel := f.Scenario.Telemetry
	harvestLink(&tel.Net.Data, f.stage.fwd.Stats())
	harvestLink(&tel.Net.Ack, f.stage.rev.Stats())
	st := f.stage.ch.Stats()
	tel.Channel.Compiles += st.Compiles
	tel.Channel.Segments += st.Segments
	tel.Channel.CursorQueries += st.CursorQueries
	tel.Channel.CursorAdvances += st.CursorAdvances
	tel.Channel.CursorFallbacks += st.CursorFallbacks
	if sched := f.Scenario.Faults; !sched.Empty() {
		tel.Faults.Schedules++
		episodes, storms := sched.Counts()
		tel.Faults.Episodes += int64(episodes)
		tel.Faults.StormOutages += int64(storms)
	}
	f.conn.FlushTelemetry()
	tel.WallNS = time.Since(wallStart).Nanoseconds()
}

// harvestLink copies one direction's netem.LinkStats into telemetry form.
func harvestLink(dst *telemetry.LinkCounters, st netem.LinkStats) {
	dst.Offered += int64(st.Offered)
	dst.Delivered += int64(st.Delivered)
	dst.ChannelDrops += int64(st.ChannelDrops)
	dst.QueueDrops += int64(st.QueueDrops)
	if pb := int64(st.PeakBacklog); pb > dst.PeakBacklog {
		dst.PeakBacklog = pb
	}
	dst.VectorBursts += int64(st.VectorBursts)
	dst.VectorPackets += int64(st.VectorPackets)
}
