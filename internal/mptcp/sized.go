package mptcp

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/tcp"
)

// SizedResult describes a fixed-size flow (or flow set): how fast it moved
// its bytes. This is the paper's Fig 12 quantity — the large flow and the
// two concurrent half-size flows carry the same total payload, and each
// flow's throughput is size divided by its own completion time.
type SizedResult struct {
	Segments      int64
	Completed     bool
	Duration      time.Duration // completion time, or the horizon if incomplete
	ThroughputPps float64
}

// RunSizedSingle transfers exactly segments data segments over one TCP flow;
// the scenario's FlowDuration acts as the simulation horizon.
func RunSizedSingle(base dataset.Scenario, segments int64) (SizedResult, error) {
	if segments <= 0 {
		return SizedResult{}, fmt.Errorf("mptcp: segments %d must be positive", segments)
	}
	conn, err := dataset.RunSolo(dataset.Flow{Scenario: base, Segments: segments})
	if err != nil {
		return SizedResult{}, err
	}
	return sizedResult(conn, segments, base.FlowDuration), nil
}

// RunSizedDuplex transfers the same total payload as RunSizedSingle but
// split over two concurrent subflows of segments/2 each, with independently
// seeded channels sharing the phone's cell. The aggregate throughput is the
// sum of the two flows' individual throughputs, exactly as the paper
// computes its MPTCP estimate.
func RunSizedDuplex(base dataset.Scenario, segments int64) (SizedResult, error) {
	if segments < 2 {
		return SizedResult{}, fmt.Errorf("mptcp: segments %d must be >= 2 for two subflows", segments)
	}
	half := segments / 2
	sizes := [2]int64{half, segments - half}
	flows := make([]dataset.Flow, 2)
	for i := range flows {
		flows[i] = dataset.Flow{Scenario: subflow(base, i), Segments: sizes[i]}
	}
	conns, err := dataset.RunContended(flows)
	if err != nil {
		return SizedResult{}, err
	}

	out := SizedResult{Segments: segments, Completed: true}
	for i, conn := range conns {
		r := sizedResult(conn, sizes[i], base.FlowDuration)
		out.ThroughputPps += r.ThroughputPps
		if !r.Completed {
			out.Completed = false
		}
		if r.Duration > out.Duration {
			out.Duration = r.Duration // makespan of the pair
		}
	}
	return out, nil
}

// sizedResult reduces a finished (or timed-out) sized connection.
func sizedResult(conn *tcp.Conn, segments int64, horizon time.Duration) SizedResult {
	r := SizedResult{Segments: segments}
	if at, ok := conn.Completed(); ok {
		r.Completed = true
		r.Duration = at
	} else {
		r.Duration = horizon
	}
	if r.Duration > 0 {
		if r.Completed {
			r.ThroughputPps = float64(segments) / r.Duration.Seconds()
		} else {
			r.ThroughputPps = float64(conn.Stats().UniqueDelivered) / r.Duration.Seconds()
		}
	}
	return r
}

// CompareSized runs the paper's Fig 12 comparison on one scenario: a large
// flow of the given size against two concurrent half-size flows, returning
// both throughputs and the relative improvement.
func CompareSized(base dataset.Scenario, segments int64) (single, duplex, improvement float64, err error) {
	s, err := RunSizedSingle(base, segments)
	if err != nil {
		return 0, 0, 0, err
	}
	d, err := RunSizedDuplex(base, segments)
	if err != nil {
		return 0, 0, 0, err
	}
	return s.ThroughputPps, d.ThroughputPps, Improvement(d.ThroughputPps, s.ThroughputPps), nil
}
