package netem

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func newTestLink(t *testing.T, cfg LinkConfig) (*sim.Simulator, *Link) {
	t.Helper()
	s := sim.New()
	if cfg.Delay == nil {
		cfg.Delay = FixedDelay(10 * time.Millisecond)
	}
	return s, NewLink(s, cfg)
}

func TestLinkDeliversWithDelay(t *testing.T) {
	s, l := newTestLink(t, LinkConfig{Delay: FixedDelay(25 * time.Millisecond)})
	var deliveredAt time.Duration
	ok, _ := l.Send(1000, HandlerFunc(func() { deliveredAt = s.Now() }))
	if !ok {
		t.Fatal("Send reported drop on lossless link")
	}
	s.Run()
	if deliveredAt != 25*time.Millisecond {
		t.Errorf("delivered at %v, want 25ms", deliveredAt)
	}
	if got := l.Stats(); got.Offered != 1 || got.Delivered != 1 {
		t.Errorf("stats = %+v", got)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	// 8000 bits at 8000 bit/s = 1 s serialization per 1000-byte packet.
	s, l := newTestLink(t, LinkConfig{Rate: 8000, Delay: FixedDelay(0)})
	var times []time.Duration
	for i := 0; i < 3; i++ {
		l.Send(1000, HandlerFunc(func() { times = append(times, s.Now()) }))
	}
	s.Run()
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(times) != 3 {
		t.Fatalf("delivered %d, want 3", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("packet %d delivered at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestLinkQueueTailDrop(t *testing.T) {
	s, l := newTestLink(t, LinkConfig{Rate: 8000, MaxQueue: 2, Delay: FixedDelay(0)})
	accepted := 0
	queueDrops := 0
	// First packet enters service immediately; next two queue; the rest tail-drop.
	for i := 0; i < 6; i++ {
		ok, kind := l.Send(1000, HandlerFunc(func() {}))
		if ok {
			accepted++
		} else if kind == DropQueue {
			queueDrops++
		}
	}
	s.Run()
	if accepted != 3 {
		t.Errorf("accepted = %d, want 3 (1 in service + 2 queued)", accepted)
	}
	if queueDrops != 3 {
		t.Errorf("queueDrops = %d, want 3", queueDrops)
	}
	if got := l.Stats(); got.QueueDrops != 3 || got.Delivered != 3 {
		t.Errorf("stats = %+v", got)
	}
}

func TestLinkQueueDrainsOverTime(t *testing.T) {
	s, l := newTestLink(t, LinkConfig{Rate: 8000, MaxQueue: 1, Delay: FixedDelay(0)})
	if ok, _ := l.Send(1000, HandlerFunc(func() {})); !ok {
		t.Fatal("first packet rejected")
	}
	if ok, _ := l.Send(1000, HandlerFunc(func() {})); !ok {
		t.Fatal("second packet should queue")
	}
	if ok, kind := l.Send(1000, HandlerFunc(func() {})); ok || kind != DropQueue {
		t.Fatal("third packet should tail-drop")
	}
	s.RunUntil(2500 * time.Millisecond) // both packets done by 2s
	if ok, _ := l.Send(1000, HandlerFunc(func() {})); !ok {
		t.Error("packet after drain should be accepted")
	}
	s.Run()
}

func TestLinkChannelDrop(t *testing.T) {
	rng := sim.NewRand(8, sim.StreamDataLoss)
	s, l := newTestLink(t, LinkConfig{
		Delay: FixedDelay(time.Millisecond),
		Loss:  NewBernoulli(1, rng),
	})
	called := false
	ok, kind := l.Send(100, HandlerFunc(func() { called = true }))
	if ok || kind != DropChannel {
		t.Fatalf("Send = (%v, %v), want (false, channel)", ok, kind)
	}
	s.Run()
	if called {
		t.Error("deliver callback fired for a dropped packet")
	}
	st := l.Stats()
	if st.ChannelDrops != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Offered != 1 {
		t.Errorf("Offered = %d, want 1", st.Offered)
	}
}

func TestLinkNoReordering(t *testing.T) {
	// A jittery delay model could reorder; the link must clamp deliveries to
	// FIFO order.
	rng := sim.NewRand(9, sim.StreamDelay)
	s := sim.New()
	l := NewLink(s, LinkConfig{Delay: NewUniformDelay(time.Millisecond, 50*time.Millisecond, rng)})
	var order []int
	for i := 0; i < 200; i++ {
		i := i
		l.Send(100, HandlerFunc(func() { order = append(order, i) }))
		s.RunUntil(s.Now() + 100*time.Microsecond)
	}
	s.Run()
	if len(order) != 200 {
		t.Fatalf("delivered %d, want 200", len(order))
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("reordered delivery at index %d: %d", i, order[i])
		}
	}
}

func TestLinkPanics(t *testing.T) {
	s := sim.New()
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("nil simulator", func() { NewLink(nil, LinkConfig{Delay: FixedDelay(0)}) })
	assertPanics("nil delay", func() { NewLink(s, LinkConfig{}) })
	assertPanics("negative rate", func() { NewLink(s, LinkConfig{Rate: -1, Delay: FixedDelay(0)}) })
	l := NewLink(s, LinkConfig{Delay: FixedDelay(0)})
	assertPanics("zero size", func() { l.Send(0, HandlerFunc(func() {})) })
	assertPanics("nil deliver", func() { l.Send(10, nil) })
}

func TestQueueDepth(t *testing.T) {
	s, l := newTestLink(t, LinkConfig{Rate: 8000, Delay: FixedDelay(0)})
	if l.QueueDepth() != 0 {
		t.Error("idle link should have zero queue depth")
	}
	l.Send(1000, HandlerFunc(func() {})) // 1s of service time
	if got := l.QueueDepth(); got != time.Second {
		t.Errorf("QueueDepth = %v, want 1s", got)
	}
	s.Run()
	if l.QueueDepth() != 0 {
		t.Error("drained link should have zero queue depth")
	}
}

func TestDelayModels(t *testing.T) {
	if got := FixedDelay(5 * time.Millisecond).Sample(0); got != 5*time.Millisecond {
		t.Errorf("FixedDelay.Sample = %v", got)
	}
	rng := sim.NewRand(10, sim.StreamDelay)
	u := NewUniformDelay(10*time.Millisecond, 5*time.Millisecond, rng)
	for i := 0; i < 1000; i++ {
		d := u.Sample(0)
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("UniformDelay.Sample = %v outside [10ms, 15ms)", d)
		}
	}
	zeroJitter := NewUniformDelay(7*time.Millisecond, 0, rng)
	if got := zeroJitter.Sample(0); got != 7*time.Millisecond {
		t.Errorf("zero-jitter Sample = %v, want 7ms", got)
	}
	df := DelayFunc{Fn: func(now time.Duration) time.Duration { return now / 2 }}
	if got := df.Sample(10 * time.Second); got != 5*time.Second {
		t.Errorf("DelayFunc.Sample = %v, want 5s", got)
	}
	sum := NewSumDelay(FixedDelay(time.Millisecond), FixedDelay(2*time.Millisecond))
	if got := sum.Sample(0); got != 3*time.Millisecond {
		t.Errorf("SumDelay.Sample = %v, want 3ms", got)
	}
}

func TestUniformDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewUniformDelay with negative base did not panic")
		}
	}()
	NewUniformDelay(-time.Millisecond, 0, sim.NewRand(1, sim.StreamDelay))
}

func TestNewPath(t *testing.T) {
	s := sim.New()
	f := NewLink(s, LinkConfig{Delay: FixedDelay(0)})
	r := NewLink(s, LinkConfig{Delay: FixedDelay(0)})
	p := NewPath(f, r)
	if p.Forward != f || p.Reverse != r {
		t.Error("NewPath did not wire links")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewPath with nil link did not panic")
		}
	}()
	NewPath(f, nil)
}

func TestDropKindString(t *testing.T) {
	if DropChannel.String() != "channel" || DropQueue.String() != "queue" {
		t.Error("DropKind.String mismatch")
	}
	if got := DropKind(99).String(); got != "DropKind(99)" {
		t.Errorf("unknown DropKind.String = %q", got)
	}
}

func TestLinkRateScale(t *testing.T) {
	// 8000 bit/s and 1000-byte packets: 1 s serialization at full rate.
	scale := 1.0
	s, l := newTestLink(t, LinkConfig{
		Rate:      8000,
		Delay:     FixedDelay(0),
		RateScale: func(time.Duration) float64 { return scale },
	})
	var deliveredAt []time.Duration
	send := func() {
		if ok, _ := l.Send(1000, HandlerFunc(func() { deliveredAt = append(deliveredAt, s.Now()) })); !ok {
			t.Fatal("unexpected drop")
		}
	}
	send()
	s.Run()
	if deliveredAt[0] != time.Second {
		t.Fatalf("full-rate serialization took %v, want 1s", deliveredAt[0])
	}

	// Collapse the rate to a quarter: the next packet serializes in 4 s.
	scale = 0.25
	send()
	s.Run()
	if got := deliveredAt[1] - deliveredAt[0]; got != 4*time.Second {
		t.Errorf("collapsed-rate serialization took %v, want 4s", got)
	}

	// A zero (or negative) scale is floored, not divided by: the packet is
	// extremely slow but the simulation stays finite.
	scale = 0
	send()
	s.Run()
	if len(deliveredAt) != 3 {
		t.Fatal("packet under floored rate scale never delivered")
	}
	if got := deliveredAt[2] - deliveredAt[1]; got <= 4*time.Second {
		t.Errorf("floored-rate serialization took %v, want far slower than the collapse", got)
	}
}

func TestLinkRateScaleIgnoredWhenInfinitelyFast(t *testing.T) {
	called := false
	s, l := newTestLink(t, LinkConfig{
		Delay:     FixedDelay(5 * time.Millisecond),
		RateScale: func(time.Duration) float64 { called = true; return 0.5 },
	})
	var at time.Duration
	l.Send(1000, HandlerFunc(func() { at = s.Now() }))
	s.Run()
	if called {
		t.Error("RateScale consulted on a rate-unlimited link")
	}
	if at != 5*time.Millisecond {
		t.Errorf("delivered at %v, want pure propagation delay", at)
	}
}

// trainWindow keeps a fixed window of packets in flight on one link: every
// delivery sends the next packet while sends remain.
type trainWindow struct {
	l    *Link
	left int
}

func (w *trainWindow) Fire() {
	if w.left > 0 {
		w.left--
		w.l.Send(1500, w)
	}
}

// TestLinkTrainZeroAlloc is the CI zero-alloc gate on the delivery train: a
// warmed link delivering a steady 64-packet window allocates nothing per
// round, telemetry on.
func TestLinkTrainZeroAlloc(t *testing.T) {
	s := sim.New()
	var k telemetry.Kernel
	s.SetTelemetry(&k)
	l := NewLink(s, LinkConfig{Rate: 100e6, Delay: FixedDelay(20 * time.Millisecond)})
	w := &trainWindow{l: l}
	const window = 64
	round := func() {
		w.left = 4 * window
		for i := 0; i < window; i++ {
			l.Send(1500, w)
		}
		s.Run()
	}
	round() // grow the ring to the window
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("warmed link train allocates %v per round of %d packets, want 0", allocs, 5*window)
	}
	// The warm-up round, AllocsPerRun's own warm-up run, and 50 measured.
	if got, want := l.Stats().Delivered, 52*5*window; got != want {
		t.Fatalf("delivered %d packets, want %d", got, want)
	}
}
