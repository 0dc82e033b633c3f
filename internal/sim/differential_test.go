package sim

// Differential testing of the indexed-heap kernel against a reference
// scheduler. The reference is the obviously correct one: a binary (at, seq)
// min-heap with lazy deletion, where every Stop or re-arm leaves a stale
// entry behind and a fired event is always popped before its handler runs.
// Both kernels consume the same randomized schedule of operations —
// Schedule/ScheduleFire (including zero delays and handler-chained events),
// Stop, Reschedule, NextSeq reservations, ArmAt with reserved stamps, Step,
// RunBatch, RunUntil, and budget exhaustion — and handlers that re-arm,
// Reschedule or Stop their own timer while it fires. Both must produce the
// identical global fire order and identical accounting. Any kernel bug that
// reorders, drops, duplicates, or resurrects an event shows up as a log
// divergence.

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refEvent is one schedulable event in the reference model.
type refEvent struct {
	at        time.Duration
	seq       uint64
	gen       uint64 // bumped on Stop/Reschedule; validates heap entries
	id        int
	pooled    bool // scheduled fire-and-forget: no handle for self-actions
	fired     bool
	cancelled bool
}

// refEntry is a heap cell; stale cells (gen mismatch) are skipped at pop.
type refEntry struct {
	at  time.Duration
	seq uint64
	gen uint64
	e   *refEvent
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refSched is the reference scheduler: same public semantics as Simulator,
// implemented the obviously-correct way.
type refSched struct {
	now       time.Duration
	seq       uint64
	live      int
	h         refHeap
	budget    Budget
	executed  int64
	exhausted bool
	fire      func(*refEvent) // harness hook: logs and chain-schedules
}

func (r *refSched) push(e *refEvent) {
	e.seq = r.seq
	r.seq++
	r.live++
	heap.Push(&r.h, refEntry{at: e.at, seq: e.seq, gen: e.gen, e: e})
}

func (r *refSched) schedule(delay time.Duration, id int) *refEvent {
	e := &refEvent{at: r.now + delay, id: id}
	r.push(e)
	return e
}

func (r *refSched) stop(e *refEvent) bool {
	if e.fired || e.cancelled {
		return false
	}
	e.cancelled = true
	e.gen++
	r.live--
	return true
}

func (r *refSched) reschedule(e *refEvent, delay time.Duration) {
	r.armAt(e, r.now+delay, r.nextSeq())
}

func (r *refSched) nextSeq() uint64 {
	seq := r.seq
	r.seq++
	return seq
}

func (r *refSched) armAt(e *refEvent, at time.Duration, seq uint64) {
	e.at = at
	e.gen++
	if e.fired || e.cancelled {
		e.fired, e.cancelled = false, false
		r.live++
	}
	e.seq = seq
	heap.Push(&r.h, refEntry{at: e.at, seq: e.seq, gen: e.gen, e: e})
}

// peek returns the earliest live event without consuming it, or nil.
func (r *refSched) peek() *refEvent {
	for len(r.h) > 0 {
		top := r.h[0]
		if top.e.gen == top.gen {
			return top.e
		}
		heap.Pop(&r.h)
	}
	return nil
}

func (r *refSched) refuses(at time.Duration) bool {
	if r.budget.MaxEvents > 0 && r.executed >= r.budget.MaxEvents {
		r.exhausted = true
		return true
	}
	if r.budget.MaxVirtualTime > 0 && at > r.budget.MaxVirtualTime {
		r.exhausted = true
		return true
	}
	return false
}

func (r *refSched) step() bool {
	e := r.peek()
	if e == nil {
		return false
	}
	if r.refuses(e.at) {
		return false
	}
	heap.Pop(&r.h)
	e.gen++
	e.fired = true
	r.now = e.at
	r.live--
	r.executed++
	r.fire(e)
	return true
}

func (r *refSched) run() {
	for r.step() {
	}
}

func (r *refSched) runUntil(deadline time.Duration) {
	for {
		e := r.peek()
		if e == nil || e.at > deadline {
			break
		}
		if r.refuses(e.at) {
			return
		}
		heap.Pop(&r.h)
		e.gen++
		e.fired = true
		r.now = e.at
		r.live--
		r.executed++
		r.fire(e)
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// fireRec is one entry of a fire log: which event fired and when.
type fireRec struct {
	id int
	at time.Duration
}

// fireLogger implements Handler for the kernel side's fire-and-forget events.
type fireLogger struct {
	h  *diffHarness
	id int
}

func (f *fireLogger) Fire() { f.h.realFired(f.id) }

// diffHarness drives the heap kernel and the reference scheduler through
// one operation schedule and collects both fire logs.
type diffHarness struct {
	t *testing.T

	s *Simulator
	r *refSched

	// Stoppable timers, parallel by index. Fire-and-forget events are not
	// listed: they have no handle.
	realTimers []*Timer
	refEvents  []*refEvent

	// Handles by event id, for handlers acting on their own timer.
	realByID map[int]*Timer
	refByID  map[int]*refEvent

	// Reserved, not yet used FIFO stamps, oldest first.
	realSeqs, refSeqs []uint64

	realLog []fireRec
	refLog  []fireRec

	// Per-side chain state: fired events with id%3==0 schedule a follow-up
	// while chain budget remains, exercising scheduling from inside dispatch
	// (including zero delays into the tick being drained).
	realChain, refChain   int
	realNextID, refNextID int
	// Per-side budget of handler self-actions (re-arm, Reschedule).
	realSelf, refSelf int
}

// chainDelay derives a deterministic follow-up delay from the firing event's
// id; id%5==0 yields zero (a same-tick event born mid-batch).
func chainDelay(id int) time.Duration {
	return time.Duration(id%5) * 300 * time.Microsecond
}

// realReserve and refReserve hand out the oldest reserved stamp, or a fresh
// one when none is left; a stamp is used once, so no two queued events
// share a key.
func (h *diffHarness) realReserve() uint64 {
	if len(h.realSeqs) == 0 {
		return h.s.NextSeq()
	}
	seq := h.realSeqs[0]
	h.realSeqs = h.realSeqs[1:]
	return seq
}

func (h *diffHarness) refReserve() uint64 {
	if len(h.refSeqs) == 0 {
		return h.r.nextSeq()
	}
	seq := h.refSeqs[0]
	h.refSeqs = h.refSeqs[1:]
	return seq
}

// realSchedule and refSchedule queue a stoppable timer under a fresh id.
func (h *diffHarness) realSchedule(d time.Duration) {
	id := h.realNextID
	h.realNextID++
	tm := h.s.Schedule(d, func() { h.realFired(id) })
	h.realTimers = append(h.realTimers, tm)
	h.realByID[id] = tm
}

func (h *diffHarness) refSchedule(d time.Duration) {
	id := h.refNextID
	h.refNextID++
	e := h.r.schedule(d, id)
	h.refEvents = append(h.refEvents, e)
	h.refByID[id] = e
}

// realFired and refFired log a firing. A stoppable timer's handler may then
// act on its own timer by id: id%7 == 1 Reschedules it, 2 Stops it (which
// must report false: it already fired), 4 re-arms it with ArmAt under a
// reserved stamp. With id%7 == 5 it arms another timer at the current
// instant under a reserved stamp, which, when older than its own, puts that
// timer ahead of the firing one. Fired events with id%3 == 0 schedule a follow-up while
// chain budget remains, exercising scheduling from inside dispatch
// (including zero delays into the instant being dispatched).
func (h *diffHarness) realFired(id int) {
	h.realLog = append(h.realLog, fireRec{id: id, at: h.s.Now()})
	if tm := h.realByID[id]; tm != nil {
		switch id % 7 {
		case 1:
			if h.realSelf > 0 {
				h.realSelf--
				tm.Reschedule(chainDelay(id))
			}
		case 2:
			if tm.Stop() {
				h.t.Errorf("Stop of timer %d inside its own handler returned true", id)
			}
		case 4:
			if h.realSelf > 0 {
				h.realSelf--
				tm.ArmAt(h.s.Now()+chainDelay(id), h.realReserve())
			}
		case 5:
			if h.realSelf > 0 {
				h.realSelf--
				h.realTimers[id%len(h.realTimers)].ArmAt(h.s.Now(), h.realReserve())
			}
		}
	}
	if id%3 == 0 && h.realChain > 0 {
		h.realChain--
		h.realSchedule(chainDelay(id))
	}
}

func (h *diffHarness) refFired(e *refEvent) {
	h.refLog = append(h.refLog, fireRec{id: e.id, at: h.r.now})
	if !e.pooled {
		switch e.id % 7 {
		case 1:
			if h.refSelf > 0 {
				h.refSelf--
				h.r.reschedule(e, chainDelay(e.id))
			}
		case 2:
			if h.r.stop(e) {
				h.t.Errorf("reference Stop of event %d inside its own handler returned true", e.id)
			}
		case 4:
			if h.refSelf > 0 {
				h.refSelf--
				h.r.armAt(e, h.r.now+chainDelay(e.id), h.refReserve())
			}
		case 5:
			if h.refSelf > 0 {
				h.refSelf--
				h.r.armAt(h.refEvents[e.id%len(h.refEvents)], h.r.now, h.refReserve())
			}
		}
	}
	if e.id%3 == 0 && h.refChain > 0 {
		h.refChain--
		h.refSchedule(chainDelay(e.id))
	}
}

// checkState compares the cheap invariants after every op so a divergence is
// attributed to the op that introduced it, not to the final drain.
func (h *diffHarness) checkState(op string) {
	h.t.Helper()
	if h.s.Pending() != h.r.live {
		h.t.Fatalf("after %s: Pending() = %d, reference = %d", op, h.s.Pending(), h.r.live)
	}
	if h.s.Now() != h.r.now {
		h.t.Fatalf("after %s: Now() = %v, reference = %v", op, h.s.Now(), h.r.now)
	}
	if h.s.Executed() != h.r.executed {
		h.t.Fatalf("after %s: Executed() = %d, reference = %d", op, h.s.Executed(), h.r.executed)
	}
	if h.s.Exhausted() != h.r.exhausted {
		h.t.Fatalf("after %s: Exhausted() = %v, reference = %v", op, h.s.Exhausted(), h.r.exhausted)
	}
	if len(h.realLog) != len(h.refLog) {
		h.t.Fatalf("after %s: %d fires on heap kernel, %d on reference", op, len(h.realLog), len(h.refLog))
	}
	if h.s.queuedLen() != h.s.Pending() {
		h.t.Fatalf("after %s: %d heap entries but %d pending events", op, h.s.queuedLen(), h.s.Pending())
	}
}

func (h *diffHarness) checkLogs() {
	h.t.Helper()
	n := len(h.realLog)
	if len(h.refLog) < n {
		n = len(h.refLog)
	}
	for i := 0; i < n; i++ {
		if h.realLog[i] != h.refLog[i] {
			h.t.Fatalf("fire %d diverged: heap kernel fired id=%d at %v, reference id=%d at %v",
				i, h.realLog[i].id, h.realLog[i].at, h.refLog[i].id, h.refLog[i].at)
		}
	}
	if len(h.realLog) != len(h.refLog) {
		h.t.Fatalf("fire counts diverged: heap kernel %d, reference %d", len(h.realLog), len(h.refLog))
	}
}

// decodeDelay maps two schedule bytes to a delay: the common case stays
// within ~5.7 s, and every seventh value is stretched ~4096x into the far
// future, so near and distant events interleave in the heap.
func decodeDelay(hi, lo byte) time.Duration {
	v := int64(hi)<<8 | int64(lo)
	d := time.Duration(v) * 87 * time.Microsecond
	if v%7 == 0 {
		d *= 4096
	}
	return d
}

// runDifferential interprets ops as an operation schedule against both
// kernels. It is the shared body of the seeded randomized test and the fuzz
// target.
func runDifferential(t *testing.T, ops []byte) {
	if len(ops) > 4096 {
		ops = ops[:4096]
	}
	h := &diffHarness{
		t:         t,
		s:         New(),
		realByID:  map[int]*Timer{},
		refByID:   map[int]*refEvent{},
		realChain: 256,
		refChain:  256,
		realSelf:  256,
		refSelf:   256,
	}
	h.r = &refSched{fire: h.refFired}
	h.s.SetInvariantChecks(true)

	i := 0
	next := func() byte {
		if i < len(ops) {
			b := ops[i]
			i++
			return b
		}
		return 0
	}
	for i < len(ops) {
		op := next()
		switch op % 11 {
		case 0: // Schedule a stoppable timer
			d := decodeDelay(next(), next())
			h.realSchedule(d)
			h.refSchedule(d)
			h.checkState("schedule")
		case 1: // ScheduleFire through the pooled fire-and-forget path
			d := decodeDelay(next(), next())
			id := h.realNextID
			h.realNextID++
			h.s.ScheduleFire(d, &fireLogger{h: h, id: id})
			rid := h.refNextID
			h.refNextID++
			h.r.schedule(d, rid).pooled = true
			h.checkState("schedulefire")
		case 2: // Zero-delay schedule: fires after everything already due now
			h.realSchedule(0)
			h.refSchedule(0)
			h.checkState("zero-delay")
		case 3: // Stop a random timer; the return values must agree
			if len(h.realTimers) != len(h.refEvents) {
				t.Fatalf("timer lists diverged: %d vs %d", len(h.realTimers), len(h.refEvents))
			}
			if n := len(h.realTimers); n > 0 {
				k := int(next()) % n
				rs := h.realTimers[k].Stop()
				fs := h.r.stop(h.refEvents[k])
				if rs != fs {
					t.Fatalf("Stop(timer %d) = %v on heap kernel, %v on reference", k, rs, fs)
				}
			}
			h.checkState("stop")
		case 4: // Reschedule a random timer (active, stopped, or fired)
			if n := len(h.realTimers); n > 0 {
				k := int(next()) % n
				d := decodeDelay(next(), next())
				ra := h.realTimers[k].Active()
				fa := !h.refEvents[k].fired && !h.refEvents[k].cancelled
				if ra != fa {
					t.Fatalf("Active(timer %d) = %v on heap kernel, %v on reference", k, ra, fa)
				}
				h.realTimers[k].Reschedule(d)
				h.r.reschedule(h.refEvents[k], d)
			}
			h.checkState("reschedule")
		case 5: // Step one event on each
			rs := h.s.Step()
			fs := h.r.step()
			if rs != fs {
				t.Fatalf("Step() = %v on heap kernel, %v on reference", rs, fs)
			}
			h.checkState("step")
		case 6: // RunBatch one tick's worth; the reference replays the count
			n := h.s.RunBatch()
			for j := 0; j < n; j++ {
				if !h.r.step() {
					t.Fatalf("RunBatch fired %d events but reference drained after %d", n, j)
				}
			}
			h.checkState("runbatch")
		case 7: // RunUntil a nearby deadline
			d := decodeDelay(next(), next())
			h.s.RunUntil(h.s.Now() + d)
			h.r.runUntil(h.r.now + d)
			h.checkState("rununtil")
		case 8: // Budget exhaustion: cap events a little past the current count
			k := int64(next() % 8)
			if h.s.Executed() != h.r.executed {
				t.Fatalf("pre-budget Executed diverged: %d vs %d", h.s.Executed(), h.r.executed)
			}
			b := Budget{MaxEvents: h.s.Executed() + k}
			h.s.SetBudget(b)
			h.r.budget, h.r.exhausted = b, false
			h.s.Run()
			h.r.run()
			h.checkState("budget-run")
			h.s.SetBudget(Budget{})
			h.r.budget, h.r.exhausted = Budget{}, false
		case 9: // Reserve a stamp; stamps handed out later are all younger
			rs, fs := h.s.NextSeq(), h.r.nextSeq()
			if rs != fs {
				t.Fatalf("NextSeq() = %d on heap kernel, %d on reference", rs, fs)
			}
			h.realSeqs = append(h.realSeqs, rs)
			h.refSeqs = append(h.refSeqs, fs)
			h.checkState("nextseq")
		case 10: // ArmAt a random timer under the oldest reserved stamp
			if n := len(h.realTimers); n > 0 {
				k := int(next()) % n
				sel := next()
				d := decodeDelay(next(), next())
				rat, fat := h.s.Now()+d, h.r.now+d
				if sel%2 == 0 {
					// Land on another timer's instant, where an older
					// reserved stamp must fire ahead of younger entries.
					j := int(sel/2) % n
					rat, fat = max(h.realTimers[j].At(), h.s.Now()), max(h.refEvents[j].at, h.r.now)
				}
				h.realTimers[k].ArmAt(rat, h.realReserve())
				h.r.armAt(h.refEvents[k], fat, h.refReserve())
			}
			h.checkState("armat")
		}
		h.checkLogs()
	}

	// Drain both completely and compare the full histories.
	h.s.SetBudget(Budget{})
	h.r.budget, h.r.exhausted = Budget{}, false
	h.s.Run()
	h.r.run()
	h.checkState("final-drain")
	h.checkLogs()
	if h.s.Pending() != 0 {
		t.Fatalf("heap kernel left %d events pending after full drain", h.s.Pending())
	}
}

// TestKernelDifferentialRandom feeds seeded random op schedules through the
// differential harness: the heap kernel must match the reference on every
// one.
func TestKernelDifferentialRandom(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 25
	}
	rng := rand.New(rand.NewSource(0x1CDC5))
	for it := 0; it < iters; it++ {
		ops := make([]byte, 40+rng.Intn(360))
		rng.Read(ops)
		t.Run("", func(t *testing.T) {
			runDifferential(t, ops)
		})
	}
}

// FuzzKernelDifferential lets the fuzzer search for op schedules on which
// the heap kernel and the reference disagree.
func FuzzKernelDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	// A schedule mixing far-future placements (delay values divisible by 7
	// are stretched ~4096x), cancellation, reschedule churn, and budget
	// stops.
	f.Add([]byte{
		0, 0, 7, 1, 0, 14, 0, 255, 255, 2, 2, 2,
		3, 1, 4, 0, 0, 49, 5, 5, 6, 7, 0, 28,
		8, 3, 0, 0, 0, 1, 7, 0, 8, 6, 5,
	})
	f.Add([]byte{2, 2, 2, 2, 5, 5, 5, 5, 3, 0, 4, 0, 0, 0, 5})
	// Reserve a stamp, queue younger timers at one instant, then arm a
	// timer there under the older stamp; the self-acting ids (1, 2, 4 mod 7)
	// fire along the way.
	f.Add([]byte{
		9, 0, 0, 5, 0, 0, 5, 0, 0, 5, 0, 0, 5,
		10, 0, 2, 0, 0, 10, 3, 0, 0, 0, 6, 6, 5, 5, 5,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runDifferential(t, ops)
	})
}
