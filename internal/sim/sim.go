// Package sim implements a deterministic discrete-event simulation kernel:
// a virtual clock, an indexed min-heap of pending events with stable FIFO
// ordering for simultaneous ones, cancellable timers, and seeded
// random-number streams.
//
// Every other substrate (link emulation, TCP endpoints, mobility) is driven
// by a Simulator so that a whole experiment is a single-threaded,
// reproducible computation: the same seed always produces the same packet
// trace.
//
// The scheduler is a 4-ary min-heap keyed by (timestamp, sequence stamp).
// Each heap entry holds its key inline next to its *Timer, and every Timer
// records its heap index, so Stop and Reschedule are O(log n) and never
// leave dead entries behind. Every event gets the next sequence stamp when
// it is scheduled; equal timestamps therefore fire in scheduling order.
// NextSeq reserves a stamp without scheduling anything, and Timer.ArmAt
// arms a timer with a reserved stamp: that is how a netem.Link keeps all of
// its in-flight packets behind one timer while each packet still fires at
// the position its own Send reserved.
//
// A timer that is not pooled keeps its heap slot while its handler runs.
// When the handler re-arms it, as a link does for its next packet and a TCP
// sender for its next retransmission timeout, the kernel sifts the slot
// down from the root instead of popping it and pushing it again; when the
// handler leaves it alone, the slot is removed after the handler returns.
//
// The kernel is allocation-conscious. Fire-and-forget events scheduled
// through ScheduleFire/AtFire draw their event objects from a per-simulator
// free list and return them before their handler runs, so that path
// allocates nothing in steady state. Long-lived timers avoid Stop+Schedule
// churn via Timer.Reschedule, which moves the timer within the heap.
package sim

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Handler is the callback interface of pooled fire-and-forget events
// (ScheduleFire/AtFire). Using a small struct that implements Handler —
// instead of a closure — lets callers pool their callback state and makes
// the schedule/fire path allocation-free.
type Handler interface {
	Fire()
}

// batchShift sets the width of a dispatch batch: RunBatch and the batch
// telemetry group consecutively fired events by their 2^batchShift ns
// (≈ 1.05 ms) tick.
const batchShift = 20

// heapArity is the heap's fan-out. Four children per node halve the depth
// of a binary heap, and a node's children share one or two cache lines.
const heapArity = 4

// entry is one heap slot: a queued timer and its (at, seq) key, copied
// inline so sifting compares keys without dereferencing the timer.
type entry struct {
	at  time.Duration
	seq uint64
	t   *Timer
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Simulator owns the virtual clock and the pending event queue. The zero
// value is not usable; create one with New.
type Simulator struct {
	now  time.Duration
	seq  uint64
	live int    // scheduled, not-yet-fired, not-cancelled events
	free *Timer // free list of recycled fire-and-forget events

	// heap holds every queued timer. Between events each entry is live;
	// while a non-pooled timer's handler runs, that timer keeps its slot,
	// fired and not pending, until it is re-armed or the handler returns.
	heap []entry

	budget    Budget
	executed  int64
	exhausted bool
	selfCheck bool

	// tel is the optional kernel telemetry sink. It is nil by default and
	// every update below is guarded by one nil check, so the disabled path
	// costs a predictable branch and zero allocations.
	tel *telemetry.Kernel
	// batchTick and batchLen track the telemetry's current dispatch batch.
	batchTick int64
	batchLen  int64
}

// SetTelemetry attaches a kernel metrics sink (nil detaches). Updates are
// plain integer increments into the caller-owned struct; the kernel never
// allocates for telemetry.
func (s *Simulator) SetTelemetry(k *telemetry.Kernel) { s.tel = k }

// Budget is a runaway-loop guard: it bounds how much work a simulation run
// may do before Step refuses to execute further events. A pathological
// workload (e.g. a fault schedule that provokes a zero-delay reschedule
// loop) then stops gracefully — the clock and queue stay intact and
// Exhausted reports the refusal — instead of spinning forever. Zero fields
// mean unlimited.
type Budget struct {
	// MaxEvents caps the total number of events executed.
	MaxEvents int64
	// MaxVirtualTime refuses events with timestamps beyond this horizon
	// (they remain queued).
	MaxVirtualTime time.Duration
}

// SetBudget installs the run budget and clears any previous exhaustion.
func (s *Simulator) SetBudget(b Budget) {
	s.budget = b
	s.exhausted = false
}

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() int64 { return s.executed }

// Exhausted reports whether the kernel refused to execute an event because
// the budget ran out. Pending events are preserved.
func (s *Simulator) Exhausted() bool { return s.exhausted }

// SetInvariantChecks toggles the kernel's self-check mode: after every
// executed event the clock and live-event counter are verified, and the
// whole heap (ordering, index back-pointers, live accounting) is audited
// periodically. Violations panic — the mode exists to turn silent kernel
// corruption into an immediate, attributable failure during stress
// campaigns, not to be recovered from.
func (s *Simulator) SetInvariantChecks(on bool) { s.selfCheck = on }

// New returns a Simulator with the clock at zero and no pending events.
func New() *Simulator {
	return &Simulator{batchTick: -1}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Pending returns the number of scheduled, not-yet-fired, not-cancelled
// events. It is O(1): the kernel maintains a live-event counter.
func (s *Simulator) Pending() int { return s.live }

// queuedLen returns the number of heap entries, for diagnostics and tests.
// Stopped timers leave the heap at once, so between events it equals
// Pending.
func (s *Simulator) queuedLen() int { return len(s.heap) }

// NextSeq reserves the next FIFO sequence stamp without scheduling an
// event. A caller that queues work of its own and fires it through one
// timer (see Timer.ArmAt) reserves each item's stamp where it would have
// scheduled the item, so the item fires exactly where a scheduled event
// would have. Telemetry counts a reservation as a scheduled event.
func (s *Simulator) NextSeq() uint64 {
	seq := s.seq
	s.seq++
	if s.tel != nil {
		s.tel.Scheduled++
	}
	return seq
}

// Schedule runs fn after delay of virtual time. A zero delay fires the event
// at the current time but strictly after all previously scheduled events for
// that time (stable FIFO order). Schedule panics on a negative delay: the
// simulation has a single arrow of time and scheduling into the past is
// always a programming error.
func (s *Simulator) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// At runs fn at absolute virtual time t (which must not be in the past).
func (s *Simulator) At(t time.Duration, fn func()) *Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: At(%v) is before current time %v", t, s.now))
	}
	if fn == nil {
		panic("sim: At with nil callback")
	}
	ev := &Timer{s: s, at: t, fn: fn, idx: -1}
	s.schedule(ev)
	return ev
}

// NewTimer returns an unarmed timer that runs fn when it fires. It is
// inactive until ArmAt or Reschedule arms it, and then behaves like a timer
// returned by At.
func (s *Simulator) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	return &Timer{s: s, fn: fn, idx: -1, cancelled: true}
}

// ScheduleFire schedules h.Fire after delay of virtual time as a
// fire-and-forget event: no handle is returned, the event cannot be
// cancelled, and the kernel's event object is recycled after firing, so the
// call is allocation-free in steady state. Ordering rules match Schedule.
func (s *Simulator) ScheduleFire(delay time.Duration, h Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleFire with negative delay %v", delay))
	}
	s.AtFire(s.now+delay, h)
}

// AtFire schedules h.Fire at absolute virtual time t as a fire-and-forget
// event (see ScheduleFire).
func (s *Simulator) AtFire(t time.Duration, h Handler) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AtFire(%v) is before current time %v", t, s.now))
	}
	if h == nil {
		panic("sim: AtFire with nil handler")
	}
	ev := s.free
	if ev == nil {
		ev = &Timer{s: s, idx: -1}
		if s.tel != nil {
			s.tel.PoolMisses++
		}
	} else {
		s.free = ev.freeNext
		ev.freeNext = nil
		if s.tel != nil {
			s.tel.PoolHits++
		}
	}
	ev.at = t
	ev.h = h
	ev.fired = false
	ev.cancelled = false
	s.schedule(ev)
}

// schedule queues a new event under the next FIFO stamp.
func (s *Simulator) schedule(ev *Timer) {
	ev.seq = s.seq
	s.seq++
	if s.tel != nil {
		s.tel.Scheduled++
	}
	s.addLive()
	s.push(ev)
}

// addLive counts one more live event and tracks the peak.
func (s *Simulator) addLive() {
	s.live++
	if s.tel != nil && int64(s.live) > s.tel.MaxPending {
		s.tel.MaxPending = int64(s.live)
	}
}

// push appends t's (at, seq) key to the heap and sifts it up.
func (s *Simulator) push(t *Timer) {
	s.heap = append(s.heap, entry{at: t.at, seq: t.seq, t: t})
	s.up(len(s.heap) - 1)
}

// remove deletes heap slot i, filling it with the last entry.
func (s *Simulator) remove(i int) {
	h := s.heap
	h[i].t.idx = -1
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
	}
	h[last] = entry{}
	s.heap = h[:last]
	if i != last {
		s.fix(i)
	}
}

// fix restores heap order after slot i's key changed.
func (s *Simulator) fix(i int) {
	if i > 0 && s.heap[i].before(&s.heap[(i-1)/heapArity]) {
		s.up(i)
	} else {
		s.down(i)
	}
}

// up sifts slot i toward the root.
func (s *Simulator) up(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].t.idx = int32(i)
		i = p
	}
	h[i] = e
	e.t.idx = int32(i)
}

// down sifts slot i toward the leaves.
func (s *Simulator) down(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+heapArity, n); j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		h[i].t.idx = int32(i)
		i = m
	}
	h[i] = e
	e.t.idx = int32(i)
}

// fire executes the root event, advancing the clock to its timestamp.
func (s *Simulator) fire() {
	t := s.heap[0].t
	s.now = t.at
	s.live--
	s.executed++
	if s.tel != nil {
		s.countEvent(t.at)
	}
	t.fired = true
	if h := t.h; h != nil {
		// Fire-and-forget event: recycle before invoking so the handler
		// can immediately reuse the object for follow-up events.
		s.remove(0)
		s.recycle(t)
		h.Fire()
	} else {
		t.fn()
		if t.fired && t.idx >= 0 {
			// Not re-armed by its handler: give up the slot it kept.
			s.remove(int(t.idx))
		}
	}
	if s.selfCheck {
		s.checkInvariants()
	}
}

// countEvent records one executed event and its dispatch batch: a run of
// consecutively fired events in one 2^batchShift ns tick.
func (s *Simulator) countEvent(at time.Duration) {
	k := s.tel
	k.Events++
	if tick := int64(at) >> batchShift; tick != s.batchTick {
		s.batchTick = tick
		s.batchLen = 0
		k.Batches++
	}
	s.batchLen++
	k.BatchEvents++
	if s.batchLen > k.MaxBatch {
		k.MaxBatch = s.batchLen
	}
}

// refuses reports (and records) whether the budget refuses to execute an
// event with timestamp at.
func (s *Simulator) refuses(at time.Duration) bool {
	if s.budget.MaxEvents > 0 && s.executed >= s.budget.MaxEvents {
		s.exhausted = true
		return true
	}
	if s.budget.MaxVirtualTime > 0 && at > s.budget.MaxVirtualTime {
		s.exhausted = true
		return true
	}
	return false
}

// recycle returns a pooled fire-and-forget event to the free list.
func (s *Simulator) recycle(ev *Timer) {
	ev.h = nil
	ev.fn = nil
	ev.freeNext = s.free
	s.free = ev
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed (false means the
// queue is empty, or the run budget is exhausted — see Exhausted).
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 || s.refuses(s.heap[0].at) {
		return false
	}
	s.fire()
	return true
}

// RunBatch executes the earliest pending event and every event after it
// that falls in the same 2^20 ns tick, including events their handlers
// schedule into that tick, and returns how many fired. Zero means the queue
// is empty or the budget refused (see Exhausted).
func (s *Simulator) RunBatch() int {
	if len(s.heap) == 0 {
		return 0
	}
	tick := int64(s.heap[0].at) >> batchShift
	n := 0
	for len(s.heap) > 0 {
		at := s.heap[0].at
		if int64(at)>>batchShift != tick || s.refuses(at) {
			break
		}
		s.fire()
		n++
	}
	return n
}

// Run executes events until the queue is empty or the budget is exhausted.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to exactly deadline. Events scheduled after the deadline remain
// queued. An exhausted budget stops the run early without advancing the
// clock past the last executed event.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for len(s.heap) > 0 {
		at := s.heap[0].at
		if at > deadline {
			break
		}
		if s.refuses(at) {
			return // budget exhausted; leave the clock where it stopped
		}
		s.fire()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// invariantAuditPeriod is how many executed events separate full-heap
// audits in self-check mode; the cheap per-event checks run every Step.
const invariantAuditPeriod = 4096

// checkInvariants verifies kernel state in self-check mode. Every event it
// bounds the live counter; every invariantAuditPeriod events it audits the
// whole heap: key order, index back-pointers, cached keys, live accounting,
// and that no queued event predates the clock.
func (s *Simulator) checkInvariants() {
	if s.live < 0 || s.live > len(s.heap) {
		panic(fmt.Sprintf("sim: invariant violation: live counter %d outside [0, %d]", s.live, len(s.heap)))
	}
	if s.executed%invariantAuditPeriod != 0 {
		return
	}
	for i := range s.heap {
		e := &s.heap[i]
		t := e.t
		if int(t.idx) != i {
			panic(fmt.Sprintf("sim: invariant violation: timer at heap slot %d records index %d", i, t.idx))
		}
		if !t.Active() {
			panic(fmt.Sprintf("sim: invariant violation: dead timer queued at heap slot %d", i))
		}
		if e.at != t.at || e.seq != t.seq {
			panic(fmt.Sprintf("sim: invariant violation: heap slot %d key (%v, %d) but timer (%v, %d)", i, e.at, e.seq, t.at, t.seq))
		}
		if e.at < s.now {
			panic(fmt.Sprintf("sim: invariant violation: live event at %v predates clock %v", e.at, s.now))
		}
		if i > 0 && e.before(&s.heap[(i-1)/heapArity]) {
			panic(fmt.Sprintf("sim: invariant violation: heap order broken at slot %d", i))
		}
	}
	if len(s.heap) != s.live {
		panic(fmt.Sprintf("sim: invariant violation: live counter %d but %d live events queued", s.live, len(s.heap)))
	}
}

// Timer is a handle to a scheduled event. It can be cancelled before firing
// with Stop and moved to a new deadline — before or after firing — with
// Reschedule or ArmAt.
type Timer struct {
	s         *Simulator
	at        time.Duration
	seq       uint64
	fn        func()
	h         Handler
	idx       int32 // heap slot, or -1 when not queued
	cancelled bool
	fired     bool
	freeNext  *Timer // free-list link (pooled fire-and-forget events only)
}

// At returns the virtual time the timer is (or was) scheduled to fire.
func (t *Timer) At() time.Duration { return t.at }

// Stop cancels the timer. It reports whether the cancellation prevented the
// timer from firing (false if it already fired or was already stopped).
// The timer leaves the heap at once; its callback is retained so the timer
// can be revived with Reschedule or ArmAt.
func (t *Timer) Stop() bool {
	if t.fired || t.cancelled {
		return false
	}
	t.cancelled = true
	s := t.s
	s.live--
	if s.tel != nil {
		s.tel.TimerStops++
	}
	s.remove(int(t.idx))
	return true
}

// Active reports whether the timer is still scheduled to fire.
func (t *Timer) Active() bool { return !t.fired && !t.cancelled }

// Reschedule moves the timer to fire at now+delay under a fresh FIFO stamp,
// reusing its callback and its kernel state. It works on active timers, on
// stopped ones, and on fired ones (both are revived), so periodic timers
// avoid the Stop+Schedule allocate-per-arm churn entirely. Reschedule panics
// on a negative delay.
func (t *Timer) Reschedule(delay time.Duration) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Reschedule with negative delay %v", delay))
	}
	s := t.s
	if s.tel != nil {
		s.tel.TimerReschedules++
	}
	seq := s.seq
	s.seq++
	t.arm(s.now+delay, seq)
}

// ArmAt moves the timer to fire at absolute time at under the sequence
// stamp seq, which the caller reserved with NextSeq: among events at the
// same time it fires where an event scheduled at that reservation would
// have. Like Reschedule it revives stopped and fired timers; unlike it,
// ArmAt consumes no stamp and is not counted in telemetry. ArmAt panics
// when at is in the past.
func (t *Timer) ArmAt(at time.Duration, seq uint64) {
	if at < t.s.now {
		panic(fmt.Sprintf("sim: ArmAt(%v) is before current time %v", at, t.s.now))
	}
	t.arm(at, seq)
}

// arm sets the timer's key and queues it: an active timer, or one that
// kept its slot while its handler runs, is sifted in place; any other is
// revived and pushed.
func (t *Timer) arm(at time.Duration, seq uint64) {
	if t.fn == nil && t.h == nil {
		panic("sim: re-arming a timer without a callback")
	}
	s := t.s
	t.at, t.seq = at, seq
	if !t.Active() {
		t.fired = false
		t.cancelled = false
		s.addLive()
	}
	if t.idx < 0 {
		s.push(t)
		return
	}
	e := &s.heap[t.idx]
	e.at, e.seq = at, seq
	s.fix(int(t.idx))
}
