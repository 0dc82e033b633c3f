package sim

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// countingHandler reschedules itself n times through the pooled
// fire-and-forget path.
type countingHandler struct {
	s     *Simulator
	left  int
	fired int
}

func (h *countingHandler) Fire() {
	h.fired++
	if h.left > 0 {
		h.left--
		h.s.ScheduleFire(time.Millisecond, h)
	}
}

func TestKernelTelemetryCounters(t *testing.T) {
	s := New()
	var k telemetry.Kernel
	s.SetTelemetry(&k)

	h := &countingHandler{s: s, left: 9}
	s.ScheduleFire(time.Millisecond, h)

	timer := s.Schedule(time.Hour, func() {})
	timer.Reschedule(2 * time.Hour)
	timer.Stop()

	s.Run()

	if h.fired != 10 {
		t.Fatalf("handler fired %d times, want 10", h.fired)
	}
	if k.Events != s.Executed() {
		t.Errorf("Events = %d, want Executed() = %d", k.Events, s.Executed())
	}
	// 10 fire-and-forget schedules + 1 timer schedule; the Reschedule is
	// counted separately.
	if k.Scheduled != 11 {
		t.Errorf("Scheduled = %d, want 11", k.Scheduled)
	}
	if k.TimerReschedules != 1 {
		t.Errorf("TimerReschedules = %d, want 1", k.TimerReschedules)
	}
	if k.TimerStops != 1 {
		t.Errorf("TimerStops = %d, want 1", k.TimerStops)
	}
	// The first fire-and-forget schedule allocates its event object; all nine
	// self-reschedules reuse it from the free list.
	if k.PoolMisses != 1 || k.PoolHits != 9 {
		t.Errorf("PoolMisses/PoolHits = %d/%d, want 1/9", k.PoolMisses, k.PoolHits)
	}
	if k.MaxPending < 1 {
		t.Errorf("MaxPending = %d, want >= 1", k.MaxPending)
	}
	if k.Batches < 1 || k.BatchEvents < k.Batches || k.MaxBatch < 1 {
		t.Errorf("batch counters = %d/%d/%d, want all positive", k.Batches, k.BatchEvents, k.MaxBatch)
	}
	if rate := k.PoolHitRate(); rate != 0.9 {
		t.Errorf("PoolHitRate = %v, want 0.9", rate)
	}
}

func TestTelemetryDoesNotChangeExecution(t *testing.T) {
	run := func(k *telemetry.Kernel) (int64, time.Duration) {
		s := New()
		if k != nil {
			s.SetTelemetry(k)
		}
		h := &countingHandler{s: s, left: 99}
		s.ScheduleFire(time.Millisecond, h)
		s.Run()
		return s.Executed(), s.Now()
	}
	offEvents, offNow := run(nil)
	var k telemetry.Kernel
	onEvents, onNow := run(&k)
	if offEvents != onEvents || offNow != onNow {
		t.Fatalf("telemetry changed execution: off=(%d, %v) on=(%d, %v)",
			offEvents, offNow, onEvents, onNow)
	}
}

// TestScheduleFireZeroAlloc is the CI zero-alloc gate: the warmed
// fire-and-forget path must not allocate, with telemetry off AND on.
func TestScheduleFireZeroAlloc(t *testing.T) {
	for _, tel := range []bool{false, true} {
		name := "telemetry-off"
		if tel {
			name = "telemetry-on"
		}
		t.Run(name, func(t *testing.T) {
			s := New()
			var k telemetry.Kernel
			if tel {
				s.SetTelemetry(&k)
			}
			h := &countingHandler{s: s}
			// Warm the event free list.
			s.ScheduleFire(time.Millisecond, h)
			s.Run()
			allocs := testing.AllocsPerRun(1000, func() {
				s.ScheduleFire(time.Millisecond, h)
				s.Run()
			})
			if allocs != 0 {
				t.Fatalf("warmed ScheduleFire+Run allocates %v allocs/op, want 0", allocs)
			}
		})
	}
}

func TestKernelTelemetryBatchesOnRunUntil(t *testing.T) {
	// Batches are runs of consecutively fired events in one 2^20 ns tick,
	// counted on every run path: three events in one tick and one in a
	// later tick make two batches.
	s := New()
	var k telemetry.Kernel
	s.SetTelemetry(&k)
	for _, at := range []time.Duration{0, 10 * time.Microsecond, 20 * time.Microsecond, 5 * time.Millisecond} {
		s.At(at, func() {})
	}
	s.RunUntil(time.Second)
	if k.Events != 4 || k.Batches != 2 || k.BatchEvents != 4 || k.MaxBatch != 3 {
		t.Fatalf("events/batches/batch_events/max_batch = %d/%d/%d/%d, want 4/2/4/3",
			k.Events, k.Batches, k.BatchEvents, k.MaxBatch)
	}
}
