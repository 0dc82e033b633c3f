package tcp

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// referenceRenoControl is a verbatim transcription of the window arithmetic
// that lived inline in sender before the CongestionControl extraction (the
// onNewAck / onDupAck / onRTO bodies of the pre-interface conn.go). It is
// deliberately written from that code, not from renoControl, so the
// differential test below pins the production controller against the
// original semantics rather than against itself.
type referenceRenoControl struct {
	cfg     Config
	newReno bool
}

func (r *referenceRenoControl) Name() string { return "reference" }

func (r *referenceRenoControl) OnNewAck(w *Window, a Ack) {
	if w.Cwnd < w.SSThresh {
		w.Cwnd++
		if w.Cwnd > w.SSThresh {
			w.Cwnd = w.SSThresh
		}
	} else {
		w.Cwnd += 1 / w.Cwnd
	}
	if wm := float64(r.cfg.WindowLimit); w.Cwnd > wm {
		w.Cwnd = wm
	}
}

func (r *referenceRenoControl) OnPartialAck(w *Window, a Ack) bool {
	if !r.newReno {
		return false
	}
	w.Cwnd -= float64(a.Acked) - 1
	if w.Cwnd < 1 {
		w.Cwnd = 1
	}
	return true
}

func (r *referenceRenoControl) OnExitRecovery(w *Window, a Ack) {
	w.Cwnd = w.SSThresh
}

func (r *referenceRenoControl) OnDupAck(w *Window, a Ack) {
	w.Cwnd++
}

func (r *referenceRenoControl) OnEnterRecovery(w *Window, a Ack) {
	w.SSThresh = halfInflight(a.Inflight)
	w.Cwnd = w.SSThresh + 3
}

func (r *referenceRenoControl) OnRTO(w *Window, a Ack) {
	w.SSThresh = halfInflight(a.Inflight)
	w.Cwnd = 1
}

func (r *referenceRenoControl) OnSpuriousTimeout(w *Window, a Ack) {}

func (r *referenceRenoControl) SendWindow(w *Window) float64 { return w.Cwnd }

// hostileConn builds a connection over a lossy, jittery path and runs it for
// dur, returning its trace. Install a controller before Start via mutate.
func hostileConn(t *testing.T, cfg Config, seed int64, dataLoss, ackLoss float64,
	dur time.Duration, mutate func(*Conn)) *trace.FlowTrace {
	t.Helper()
	s := sim.New()
	fwd := netem.NewLink(s, netem.LinkConfig{
		Rate:     2e6,
		MaxQueue: 40,
		Delay:    netem.NewUniformDelay(30*time.Millisecond, 25*time.Millisecond, sim.NewRand(seed, sim.StreamDelay)),
		Loss:     netem.NewBernoulli(dataLoss, sim.NewRand(seed, sim.StreamDataLoss)),
	})
	rev := netem.NewLink(s, netem.LinkConfig{
		Rate:     1e6,
		MaxQueue: 40,
		Delay:    netem.NewUniformDelay(30*time.Millisecond, 25*time.Millisecond, sim.NewRand(seed+1, sim.StreamDelay)),
		Loss:     netem.NewBernoulli(ackLoss, sim.NewRand(seed, sim.StreamAckLoss)),
	})
	ft := &trace.FlowTrace{Meta: trace.FlowMeta{ID: "cc-diff", Duration: dur}}
	conn, err := New(s, netem.NewPath(fwd, rev), cfg, ft)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(conn)
	}
	if err := conn.Start(dur); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(dur)
	return ft
}

// TestRenoBehindInterfaceMatchesReference runs Reno and NewReno through a
// hostile corpus (loss on both directions, delay jitter strong enough to
// reorder, queue overflow) twice — once with the production controller, once
// with the verbatim pre-refactor arithmetic injected — and requires the two
// traces to agree event for event, including every recorded cwnd.
func TestRenoBehindInterfaceMatchesReference(t *testing.T) {
	corpus := []struct {
		seed              int64
		dataLoss, ackLoss float64
	}{
		{1, 0, 0},
		{2, 0.05, 0},
		{3, 0, 0.20},
		{4, 0.15, 0.15},
		{5, 0.29, 0.05},
		{6, 0.02, 0.29},
		{7, 0.25, 0.25},
	}
	for _, newReno := range []bool{false, true} {
		for _, c := range corpus {
			cfg := DefaultConfig()
			if newReno {
				cfg.Variant = VariantNewReno
			} else {
				cfg.Variant = VariantReno
			}
			name := fmt.Sprintf("%s/seed=%d/loss=%.2f-%.2f", cfg.Variant, c.seed, c.dataLoss, c.ackLoss)
			got := hostileConn(t, cfg, c.seed, c.dataLoss, c.ackLoss, 30*time.Second, nil)
			want := hostileConn(t, cfg, c.seed, c.dataLoss, c.ackLoss, 30*time.Second, func(conn *Conn) {
				conn.snd.cc = &referenceRenoControl{cfg: cfg, newReno: newReno}
			})
			if len(got.Events) != len(want.Events) {
				t.Fatalf("%s: %d events with production controller, %d with reference",
					name, len(got.Events), len(want.Events))
			}
			for i := range got.Events {
				if got.Events[i] != want.Events[i] {
					t.Fatalf("%s: event %d diverged:\n  production: %+v\n  reference:  %+v",
						name, i, got.Events[i], want.Events[i])
				}
			}
		}
	}
}

// invariantCheckControl wraps a controller and asserts the window invariants
// after every hook: cwnd never below 1 (except transiently inside recovery
// entry, where the post-hook value is ssthresh+3 anyway), ssthresh never
// below 2, and neither ever NaN or infinite.
type invariantCheckControl struct {
	inner CongestionControl
	fail  func(format string, args ...any)
}

func (c *invariantCheckControl) check(hook string, w *Window) {
	if !(w.Cwnd >= 1) || w.Cwnd != w.Cwnd {
		c.fail("%s/%s: cwnd %v < 1", c.inner.Name(), hook, w.Cwnd)
	}
	if !(w.SSThresh >= 2) || w.SSThresh != w.SSThresh {
		c.fail("%s/%s: ssthresh %v < 2", c.inner.Name(), hook, w.SSThresh)
	}
	if sw := c.inner.SendWindow(w); !(sw >= 1) {
		c.fail("%s/%s: send window %v < 1", c.inner.Name(), hook, sw)
	}
}

func (c *invariantCheckControl) Name() string { return c.inner.Name() }
func (c *invariantCheckControl) OnNewAck(w *Window, a Ack) {
	c.inner.OnNewAck(w, a)
	c.check("OnNewAck", w)
}
func (c *invariantCheckControl) OnPartialAck(w *Window, a Ack) bool {
	ok := c.inner.OnPartialAck(w, a)
	c.check("OnPartialAck", w)
	return ok
}
func (c *invariantCheckControl) OnExitRecovery(w *Window, a Ack) {
	c.inner.OnExitRecovery(w, a)
	c.check("OnExitRecovery", w)
}
func (c *invariantCheckControl) OnDupAck(w *Window, a Ack) {
	c.inner.OnDupAck(w, a)
	c.check("OnDupAck", w)
}
func (c *invariantCheckControl) OnEnterRecovery(w *Window, a Ack) {
	c.inner.OnEnterRecovery(w, a)
	c.check("OnEnterRecovery", w)
}
func (c *invariantCheckControl) OnRTO(w *Window, a Ack) {
	c.inner.OnRTO(w, a)
	c.check("OnRTO", w)
}
func (c *invariantCheckControl) OnSpuriousTimeout(w *Window, a Ack) {
	c.inner.OnSpuriousTimeout(w, a)
	c.check("OnSpuriousTimeout", w)
}
func (c *invariantCheckControl) SendWindow(w *Window) float64 { return c.inner.SendWindow(w) }

// TestControllerInvariantsFuzzed drives every variant through random hostile
// scenarios with an invariant-checking shim around the controller, so the
// window rules are verified after every single hook invocation rather than
// only at flow end.
func TestControllerInvariantsFuzzed(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := func(seed int64, dataLossPct, ackLossPct uint8) bool {
				cfg := DefaultConfig()
				cfg.Variant = v
				ok := true
				hostileConn(t, cfg, seed, float64(dataLossPct%30)/100, float64(ackLossPct%30)/100,
					15*time.Second, func(conn *Conn) {
						conn.snd.cc = &invariantCheckControl{
							inner: conn.snd.cc,
							fail: func(format string, args ...any) {
								ok = false
								t.Errorf(format, args...)
							},
						}
					})
				return ok
			}
			cfg := &quick.Config{MaxCount: 12}
			if testing.Short() {
				cfg.MaxCount = 3
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestVariantsRunAndDeliver sanity-checks that every variant actually moves
// data under mild loss and reports its own name.
func TestVariantsRunAndDeliver(t *testing.T) {
	for _, v := range Variants() {
		cfg := DefaultConfig()
		cfg.Variant = v
		s := sim.New()
		fwd := netem.NewLink(s, netem.LinkConfig{
			Rate: 5e6, MaxQueue: 60,
			Delay: netem.FixedDelay(25 * time.Millisecond),
			Loss:  netem.NewBernoulli(0.02, sim.NewRand(7, sim.StreamDataLoss)),
		})
		rev := netem.NewLink(s, netem.LinkConfig{Delay: netem.FixedDelay(25 * time.Millisecond)})
		conn, err := New(s, netem.NewPath(fwd, rev), cfg, trace.Nop{})
		if err != nil {
			t.Fatal(err)
		}
		if got := conn.CC(); got != v.String() {
			t.Fatalf("CC() = %q, want %q", got, v.String())
		}
		if err := conn.Start(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(20 * time.Second)
		st := conn.Stats()
		if st.UniqueDelivered < 100 {
			t.Fatalf("%s delivered only %d segments in 20s", v, st.UniqueDelivered)
		}
	}
}

// TestCubicReduction checks the RFC 8312 multiplicative decrease and fast
// convergence: a loss at a window below the previous plateau aims the next
// plateau below the current window.
func TestCubicReduction(t *testing.T) {
	cfg := DefaultConfig()
	c := newCubicControl(cfg)
	w := &Window{Cwnd: 100, SSThresh: 50}
	c.OnEnterRecovery(w, Ack{Inflight: 100})
	if want := 100 * cubicBeta; w.SSThresh != want {
		t.Fatalf("ssthresh after loss = %v, want %v", w.SSThresh, want)
	}
	if w.Cwnd != w.SSThresh+3 {
		t.Fatalf("cwnd after loss = %v, want ssthresh+3", w.Cwnd)
	}
	if c.wMax != 100 {
		t.Fatalf("wMax = %v, want 100", c.wMax)
	}
	// Second loss from a smaller window: fast convergence aims below it.
	w2 := &Window{Cwnd: 80, SSThresh: 70}
	c.OnEnterRecovery(w2, Ack{Inflight: 80})
	if want := 80 * (1 + cubicBeta) / 2; c.wMax != want {
		t.Fatalf("fast convergence wMax = %v, want %v", c.wMax, want)
	}
}

// TestCubicGrowthConcaveThenConvex verifies the curve shape: below the
// plateau the per-ACK increment shrinks as the window approaches wMax, and
// beyond it growth accelerates again.
func TestCubicGrowthConcaveThenConvex(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowLimit = 1 << 20
	c := newCubicControl(cfg)
	w := &Window{Cwnd: 30, SSThresh: 2}
	c.wMax = 60
	rtt := 50 * time.Millisecond
	now := time.Second
	var prev float64 = w.Cwnd
	var increments []float64
	for i := 0; i < 20000 && w.Cwnd < 100; i++ {
		now += time.Millisecond
		c.OnNewAck(w, Ack{Now: now, RTT: rtt, SRTT: rtt})
		increments = append(increments, w.Cwnd-prev)
		prev = w.Cwnd
	}
	if w.Cwnd < 100 {
		t.Fatalf("window never climbed past the plateau (cwnd=%v)", w.Cwnd)
	}
	// Concave approach: growth at the start outpaces growth near the
	// plateau. Convex escape: growth past the plateau outpaces the trough.
	early, mid, late := increments[0], 0.0, increments[len(increments)-1]
	for _, inc := range increments {
		if mid == 0 || inc < mid {
			mid = inc
		}
	}
	if !(early > mid) || !(late > mid) {
		t.Fatalf("not concave-then-convex: early %v, min %v, late %v", early, mid, late)
	}
}

// TestCompoundDelayWindow checks the delay-window law: with RTT at the
// floor the binomial increase raises dwnd, and queueing delay past gamma
// drains it back toward zero.
func TestCompoundDelayWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowLimit = 1 << 20
	c := newCompoundControl(cfg)
	w := &Window{Cwnd: 40, SSThresh: 2}
	base := 50 * time.Millisecond
	// No queueing: diff = 0, dwnd should grow.
	for i := 0; i < 200; i++ {
		c.OnNewAck(w, Ack{RTT: base, SRTT: base, MinRTT: base})
	}
	if c.dwnd <= 0 {
		t.Fatalf("dwnd = %v after 200 uncongested ACKs, want > 0", c.dwnd)
	}
	grown := c.dwnd
	// Heavy queueing: RTT at 4x base makes diff large, dwnd must shrink.
	for i := 0; i < 400; i++ {
		c.OnNewAck(w, Ack{RTT: 4 * base, SRTT: 4 * base, MinRTT: base})
	}
	if c.dwnd >= grown {
		t.Fatalf("dwnd = %v after congestion, want < %v", c.dwnd, grown)
	}
	if c.dwnd < 0 {
		t.Fatalf("dwnd went negative: %v", c.dwnd)
	}
	// Loss zeroes the delay component entirely.
	c.OnEnterRecovery(w, Ack{Inflight: int64(w.Cwnd)})
	if c.dwnd != 0 {
		t.Fatalf("dwnd = %v after loss, want 0", c.dwnd)
	}
}

// TestBBRStateMachine walks the probe state machine with a synthetic ACK
// clock: startup doubles toward the bandwidth estimate, a full pipe drains,
// and steady state settles into the probe-bandwidth cycle.
func TestBBRStateMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowLimit = 1 << 20
	b := newBBRControl(cfg)
	if b.state != bbrStartup {
		t.Fatalf("initial state = %v, want startup", b.state)
	}
	w := &Window{Cwnd: cfg.InitialCwnd, SSThresh: cfg.InitialSSThresh}
	rtt := 40 * time.Millisecond
	now := time.Second
	var seq int64
	// Deliver steady 250 pkt/s for many rounds: the bandwidth filter
	// saturates, growth flattens, and startup must end.
	for i := 0; i < 600 && b.state == bbrStartup; i++ {
		now += 4 * time.Millisecond
		seq += 10
		b.OnNewAck(w, Ack{Now: now, RTT: rtt, SRTT: rtt, MinRTT: rtt,
			Acked: 1, AckNo: seq, NextSeq: seq + 20, Inflight: 20})
	}
	if b.state == bbrStartup {
		t.Fatal("startup never detected a full pipe")
	}
	// Drain: the collapsed window lets inflight fall to the BDP, at which
	// point the machine must move on to the probe-bandwidth cycle.
	for i := 0; i < 2000 && b.state != bbrProbeBW; i++ {
		now += 4 * time.Millisecond
		seq += 10
		b.OnNewAck(w, Ack{Now: now, RTT: rtt, SRTT: rtt, MinRTT: rtt,
			Acked: 1, AckNo: seq, NextSeq: seq + 20, Inflight: 4})
	}
	if b.state != bbrProbeBW {
		t.Fatalf("never reached probe-bw (state %v)", b.state)
	}
	if b.btlBw() <= 0 {
		t.Fatal("no bandwidth estimate after startup")
	}
	// RTO collapses the window to 1 but keeps the model.
	b.OnRTO(w, Ack{Inflight: 20})
	if w.Cwnd != 1 {
		t.Fatalf("cwnd after RTO = %v, want 1", w.Cwnd)
	}
}
