package netem

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestChainDeliversThroughStages(t *testing.T) {
	s := sim.New()
	a := NewLink(s, LinkConfig{Delay: FixedDelay(10 * time.Millisecond)})
	b := NewLink(s, LinkConfig{Delay: FixedDelay(15 * time.Millisecond)})
	c := NewChain(a, b)
	var at time.Duration
	ok, _ := c.Send(1000, HandlerFunc(func() { at = s.Now() }))
	if !ok {
		t.Fatal("chain send rejected")
	}
	s.Run()
	if at != 25*time.Millisecond {
		t.Errorf("delivered at %v, want 25ms (sum of stage delays)", at)
	}
	if a.Stats().Delivered != 1 || b.Stats().Delivered != 1 {
		t.Error("stage counters not updated")
	}
}

func TestChainSharedCapacityStage(t *testing.T) {
	// Two flows share one rate-limited stage: their packets serialize.
	s := sim.New()
	shared := NewLink(s, LinkConfig{Rate: 8000, Delay: FixedDelay(0)}) // 1s per 1000B packet
	f1 := NewChain(NewLink(s, LinkConfig{Delay: FixedDelay(0)}), shared)
	f2 := NewChain(NewLink(s, LinkConfig{Delay: FixedDelay(0)}), shared)
	var times []time.Duration
	f1.Send(1000, HandlerFunc(func() { times = append(times, s.Now()) }))
	f2.Send(1000, HandlerFunc(func() { times = append(times, s.Now()) }))
	s.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d, want 2", len(times))
	}
	if times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("deliveries at %v, want serialization to 1s and 2s", times)
	}
}

func TestChainFirstStageDropIsSynchronous(t *testing.T) {
	s := sim.New()
	rng := sim.NewRand(1, sim.StreamDataLoss)
	lossy := NewLink(s, LinkConfig{Delay: FixedDelay(0), Loss: NewBernoulli(1, rng)})
	clean := NewLink(s, LinkConfig{Delay: FixedDelay(0)})
	c := NewChain(lossy, clean)
	ok, kind := c.Send(100, HandlerFunc(func() { t.Error("dropped packet delivered") }))
	if ok || kind != DropChannel {
		t.Errorf("Send = (%v, %v), want synchronous channel drop", ok, kind)
	}
	s.Run()
}

func TestChainLaterStageDropIsSilent(t *testing.T) {
	s := sim.New()
	rng := sim.NewRand(2, sim.StreamDataLoss)
	clean := NewLink(s, LinkConfig{Delay: FixedDelay(0)})
	lossy := NewLink(s, LinkConfig{Delay: FixedDelay(0), Loss: NewBernoulli(1, rng)})
	c := NewChain(clean, lossy)
	delivered := false
	ok, _ := c.Send(100, HandlerFunc(func() { delivered = true }))
	if !ok {
		t.Error("first-stage verdict should be accept")
	}
	s.Run()
	if delivered {
		t.Error("second-stage drop delivered anyway")
	}
	if lossy.Stats().ChannelDrops != 1 {
		t.Error("second stage did not record the drop")
	}
}

func TestChainSingleStage(t *testing.T) {
	s := sim.New()
	l := NewLink(s, LinkConfig{Delay: FixedDelay(5 * time.Millisecond)})
	c := NewChain(l)
	done := false
	c.Send(10, HandlerFunc(func() { done = true }))
	s.Run()
	if !done {
		t.Error("single-stage chain did not deliver")
	}
}

func TestNewChainPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("empty", func() { NewChain() })
	assertPanics("nil stage", func() { NewChain(nil) })
}

func TestTransitLossFunc(t *testing.T) {
	rng := sim.NewRand(3, sim.StreamDataLoss)
	// Loss depends on the arrival epoch only.
	m := NewTransitLossFunc(func(_, arrival time.Duration) float64 {
		if arrival >= time.Second {
			return 1
		}
		return 0
	}, rng)
	if m.Drop(0, 500*time.Millisecond) {
		t.Error("dropped before the lossy epoch")
	}
	if !m.Drop(0, 2*time.Second) {
		t.Error("survived arrival inside the lossy epoch")
	}
}

func TestTransitLossFuncNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTransitLossFunc(nil) did not panic")
		}
	}()
	NewTransitLossFunc(nil, sim.NewRand(1, sim.StreamDataLoss))
}

func TestLinkDecidesLossAtArrivalEpoch(t *testing.T) {
	// End-to-end: a packet sent just before an outage but arriving inside
	// it is dropped by the link.
	s := sim.New()
	rng := sim.NewRand(5, sim.StreamDataLoss)
	outage := func(now time.Duration) float64 {
		if now >= time.Second {
			return 1
		}
		return 0
	}
	l := NewLink(s, LinkConfig{
		Delay: FixedDelay(200 * time.Millisecond),
		Loss: NewTransitLossFunc(func(_, arrival time.Duration) float64 {
			return outage(arrival)
		}, rng),
	})
	s.Schedule(900*time.Millisecond, func() {
		ok, kind := l.Send(100, HandlerFunc(func() { t.Error("straddling packet delivered") }))
		if ok || kind != DropChannel {
			t.Errorf("straddling packet not dropped: (%v, %v)", ok, kind)
		}
	})
	s.Run()
}
