package netem

// Differential testing of link delivery trains against the per-packet
// delivery path links used before them. refLink admits packets through the
// link's own Burst.admit (queue, delay, loss, FIFO clamp), then schedules
// each survivor as its own pooled kernel event with AtFire; a Link keeps its
// survivors in a ring behind one timer armed with stamps reserved at Send.
// The same randomized schedule of Send, BeginBurstN, Chain and
// shared-Bottleneck traffic, interleaved with plain kernel events and
// deliveries that send more packets, must produce identical (time, handler)
// delivery logs, send verdicts, LinkStats and executed-event counts on both.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// refLink is the per-packet reference: one pooled kernel event per packet.
type refLink struct {
	l    *Link // admission state and stats; its train stays empty
	free *linkEvent
}

// linkEvent is the pooled in-flight state of one reference packet: it bumps
// the delivered counter and hands off to the caller's handler when the
// emulated arrival time comes.
type linkEvent struct {
	r       *refLink
	deliver Handler
	next    *linkEvent
}

// Fire implements sim.Handler.
func (e *linkEvent) Fire() {
	r, deliver := e.r, e.deliver
	e.deliver = nil
	e.next = r.free
	r.free = e
	r.l.stats.Delivered++
	deliver.Fire()
}

func newRefLink(s *sim.Simulator, cfg LinkConfig) *refLink {
	return &refLink{l: NewLink(s, cfg)}
}

// Send implements Sender.
func (r *refLink) Send(size int, deliver Handler) (bool, DropKind) {
	b := r.l.BeginBurst(size)
	return r.burstSend(&b, deliver)
}

// burstSend offers one packet of a burst begun on r.l.
func (r *refLink) burstSend(b *Burst, deliver Handler) (bool, DropKind) {
	if deliver == nil {
		panic("netem: Send with nil deliver callback")
	}
	arrival, kind := b.admit()
	if kind != 0 {
		return false, kind
	}
	ev := r.free
	if ev == nil {
		ev = &linkEvent{r: r}
	} else {
		r.free = ev.next
		ev.next = nil
	}
	ev.deliver = deliver
	r.l.simulator.AtFire(arrival, ev)
	return true, 0
}

// trainRig is one side of the differential: a simulator, a queued lossy
// link a, an infinitely fast zero-delay link b whose deliveries tie with
// other events at the send instant, and two flows whose private stages
// chain into one shared bottleneck.
type trainRig struct {
	s     *sim.Simulator
	a, b  Sender
	burst func(size, n int, deliver func() Handler) []DropKind // BeginBurstN on a
	flows [2]*Path
	links []*Link // every link, for stats
}

func trainConfigs(seed int64) (a, b, p1, p2 LinkConfig, bn BottleneckConfig) {
	rng := func(stream int64) *rand.Rand { return rand.New(rand.NewSource(seed*16 + stream)) }
	a = LinkConfig{
		Rate: 20e6, MaxQueue: 12,
		Delay: NewUniformDelay(4*time.Millisecond, 3*time.Millisecond, rng(1)),
		Loss:  NewBernoulli(0.1, rng(2)),
	}
	b = LinkConfig{Delay: FixedDelay(0)}
	p1 = LinkConfig{Delay: NewUniformDelay(time.Millisecond, 2*time.Millisecond, rng(3)), Loss: NewBernoulli(0.05, rng(4))}
	p2 = LinkConfig{Delay: FixedDelay(2 * time.Millisecond), Loss: NewBernoulli(0.05, rng(5))}
	bn = BottleneckConfig{DownRate: 10e6, UpRate: 2e6, Queue: 6}
	return
}

// newTrainRig builds the topology on delivery trains.
func newTrainRig(seed int64) *trainRig {
	ca, cb, cp1, cp2, cbn := trainConfigs(seed)
	s := sim.New()
	a, b := NewLink(s, ca), NewLink(s, cb)
	bn, err := NewBottleneck(s, cbn)
	if err != nil {
		panic(err)
	}
	f1, f1r := NewLink(s, cp1), NewLink(s, cb)
	f2, f2r := NewLink(s, cp2), NewLink(s, cb)
	return &trainRig{
		s: s, a: a, b: b,
		burst: func(size, n int, deliver func() Handler) []DropKind {
			var out []DropKind
			bu := a.BeginBurstN(size, n)
			for k := 0; k < n; k++ {
				_, kind := bu.Send(deliver())
				out = append(out, kind)
			}
			return out
		},
		flows: [2]*Path{bn.FlowPath(f1, f1r), bn.FlowPath(f2, f2r)},
		links: []*Link{a, b, bn.Down, bn.Up, f1, f1r, f2, f2r},
	}
}

// newRefRig builds the same topology on per-packet reference links.
func newRefRig(seed int64) *trainRig {
	ca, cb, cp1, cp2, cbn := trainConfigs(seed)
	s := sim.New()
	a, b := newRefLink(s, ca), newRefLink(s, cb)
	down := newRefLink(s, LinkConfig{Rate: cbn.DownRate, MaxQueue: cbn.Queue, Delay: FixedDelay(0)})
	up := newRefLink(s, LinkConfig{Rate: cbn.UpRate, MaxQueue: cbn.Queue, Delay: FixedDelay(0)})
	f1, f1r := newRefLink(s, cp1), newRefLink(s, cb)
	f2, f2r := newRefLink(s, cp2), newRefLink(s, cb)
	return &trainRig{
		s: s, a: a, b: b,
		burst: func(size, n int, deliver func() Handler) []DropKind {
			var out []DropKind
			bu := a.l.BeginBurstN(size, n)
			for k := 0; k < n; k++ {
				_, kind := a.burstSend(&bu, deliver())
				out = append(out, kind)
			}
			return out
		},
		flows: [2]*Path{
			NewPath(NewChain(f1, down), NewChain(f1r, up)),
			NewPath(NewChain(f2, down), NewChain(f2r, up)),
		},
		links: []*Link{a.l, b.l, down.l, up.l, f1.l, f1r.l, f2.l, f2r.l},
	}
}

// trainLog is everything one side observably did.
type trainLog struct {
	fires    []trainFire
	verdicts []DropKind
	stats    []LinkStats
	executed int64
	now      time.Duration
}

type trainFire struct {
	at time.Duration
	id int
}

// trainDriver runs an op schedule on one rig. Handlers log their id when
// they fire; a firing handler may send another packet (id%4 == 0 on link
// b, id%4 == 1 on link a), so packets enter a link from inside its own
// train's delivery as well as from other events.
type trainDriver struct {
	rig    *trainRig
	log    trainLog
	nextID int
	react  int // budget of packets sent from inside deliveries
}

type trainHandler struct {
	d  *trainDriver
	id int
}

func (h *trainHandler) Fire() {
	d := h.d
	d.log.fires = append(d.log.fires, trainFire{at: d.rig.s.Now(), id: h.id})
	if d.react <= 0 {
		return
	}
	switch h.id % 4 {
	case 0:
		d.react--
		d.send(d.rig.b, 40)
	case 1:
		d.react--
		d.send(d.rig.a, 1500)
	}
}

func (d *trainDriver) handler() Handler {
	h := &trainHandler{d: d, id: d.nextID}
	d.nextID++
	return h
}

func (d *trainDriver) send(to Sender, size int) {
	_, kind := to.Send(size, d.handler())
	d.log.verdicts = append(d.log.verdicts, kind)
}

// run interprets ops against the rig, drains it, and returns the log.
func (d *trainDriver) run(ops []byte) trainLog {
	if len(ops) > 2048 {
		ops = ops[:2048]
	}
	i := 0
	next := func() byte {
		if i < len(ops) {
			i++
			return ops[i-1]
		}
		return 0
	}
	s := d.rig.s
	for i < len(ops) {
		switch next() % 8 {
		case 0: // one packet on the queued lossy link
			d.send(d.rig.a, 40+int(next())*8)
		case 1: // a vectorized burst on it
			d.log.verdicts = append(d.log.verdicts, d.rig.burst(1500, int(next()%24), d.handler)...)
		case 2: // one packet on the zero-delay link: delivered at this instant
			d.send(d.rig.b, 40)
		case 3: // data into the shared bottleneck
			d.send(d.rig.flows[next()%2].Forward, 1500)
		case 4: // an ACK into the shared uplink
			d.send(d.rig.flows[next()%2].Reverse, 40)
		case 5: // a plain kernel event, often tying with deliveries
			delay := time.Duration(next()%4) * time.Millisecond
			h := d.handler()
			s.Schedule(delay, h.Fire)
		case 6: // advance virtual time
			s.RunUntil(s.Now() + time.Duration(next())*100*time.Microsecond)
		case 7:
			s.Step()
		}
	}
	s.Run()
	for _, l := range d.rig.links {
		d.log.stats = append(d.log.stats, l.Stats())
	}
	d.log.executed = s.Executed()
	d.log.now = s.Now()
	return d.log
}

func runLinkTrain(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	train := (&trainDriver{rig: newTrainRig(seed), react: 512}).run(ops)
	ref := (&trainDriver{rig: newRefRig(seed), react: 512}).run(ops)
	n := min(len(train.fires), len(ref.fires))
	for i := 0; i < n; i++ {
		if train.fires[i] != ref.fires[i] {
			t.Fatalf("fire %d diverged: train %+v, per-packet %+v", i, train.fires[i], ref.fires[i])
		}
	}
	if len(train.fires) != len(ref.fires) {
		t.Fatalf("fire counts diverged: train %d, per-packet %d", len(train.fires), len(ref.fires))
	}
	if len(train.verdicts) != len(ref.verdicts) {
		t.Fatalf("verdict counts diverged: train %d, per-packet %d", len(train.verdicts), len(ref.verdicts))
	}
	for i := range train.verdicts {
		if train.verdicts[i] != ref.verdicts[i] {
			t.Fatalf("verdict %d: train %v, per-packet %v", i, train.verdicts[i], ref.verdicts[i])
		}
	}
	for i := range train.stats {
		if train.stats[i] != ref.stats[i] {
			t.Fatalf("link %d stats: train %+v, per-packet %+v", i, train.stats[i], ref.stats[i])
		}
	}
	if train.executed != ref.executed || train.now != ref.now {
		t.Fatalf("kernel diverged: train executed %d at %v, per-packet %d at %v",
			train.executed, train.now, ref.executed, ref.now)
	}
}

// TestLinkTrainMatchesPerPacket runs seeded random schedules through both
// delivery paths.
func TestLinkTrainMatchesPerPacket(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	rng := rand.New(rand.NewSource(0x7EA1))
	for it := 0; it < iters; it++ {
		ops := make([]byte, 50+rng.Intn(400))
		rng.Read(ops)
		seed := rng.Int63n(1 << 20)
		t.Run("", func(t *testing.T) { runLinkTrain(t, seed, ops) })
	}
}

// FuzzLinkTrain lets the fuzzer search for traffic on which a link's
// delivery train and per-packet delivery events disagree. Run in CI's fuzz
// smoke step.
func FuzzLinkTrain(f *testing.F) {
	f.Add(int64(1), []byte{0, 9, 2, 5, 0, 1, 20, 6, 40, 3, 0, 4, 1})
	f.Add(int64(7), []byte{1, 23, 1, 23, 2, 5, 0, 2, 7, 7, 6, 255, 3, 1, 3, 0, 4, 0})
	f.Add(int64(3), []byte{2, 2, 5, 0, 2, 5, 0, 7, 7, 7, 1, 8, 6, 10, 0, 200, 6, 90})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		runLinkTrain(t, seed, ops)
	})
}
