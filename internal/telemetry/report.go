package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// TaskReport is the per-experiment slice of a Report: scheduling outcome
// plus resource accounting for one DAG task.
type TaskReport struct {
	Name   string `json:"name"`
	Status string `json:"status"` // "ok", "failed" or "skipped"
	Error  string `json:"error,omitempty"`
	// WallMS is host wall time spent inside the task's Run (resource
	// metric, not reproducible).
	WallMS float64 `json:"wall_ms"`
	// Mallocs/AllocBytes are per-task heap-allocation deltas. They are only
	// attributable when tasks run sequentially (-jobs 1) and are omitted
	// otherwise.
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// Resources is process-level resource accounting for one campaign run.
// Everything in it is a host measurement: useful for tracking cost, never
// reproducible bit for bit.
type Resources struct {
	WallMS          float64 `json:"wall_ms"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	NumGC           uint32  `json:"num_gc"`
	// VirtualPerWall is simulated seconds per wall second across the
	// campaign flows (sum of flow virtual time over campaign wall time);
	// 0 when no campaign telemetry was collected.
	VirtualPerWall float64 `json:"virtual_per_wall,omitempty"`
}

// Report is the typed top-level document hsrbench -metrics writes: campaign
// counter totals (deterministic for a given seed at any parallelism),
// per-task outcomes, and process resource usage.
type Report struct {
	Tool    string `json:"tool"`
	Version string `json:"version"`
	Seed    int64  `json:"seed"`
	// Campaign totals the kernel / TCP / netem / fault counters over every
	// campaign flow that carried a telemetry bundle; nil when no campaign
	// ran (e.g. -run fig12 alone).
	Campaign *Campaign `json:"campaign,omitempty"`
	// Cache reports flow-result-cache activity (hsrbench -cache); nil when
	// no cache was configured.
	Cache *Cache `json:"cache,omitempty"`
	// Fleet reports distributed-campaign activity (shards, retries,
	// reassignments, degraded mode) when the run executed on a coordinator;
	// nil for single-node runs. Like Resources it is host-side accounting:
	// the campaign counters above stay byte-identical with or without it.
	Fleet *Fleet `json:"fleet,omitempty"`
	// CC carries the shared-bottleneck congestion-control results (Jain's
	// fairness index and per-flow throughput by variant) when the run
	// included the fairness or ccmix experiments; nil otherwise. Derived
	// entirely from single-simulator groups, so it is deterministic across
	// surfaces and worker counts.
	CC        *CCReport    `json:"cc,omitempty"`
	Tasks     []TaskReport `json:"tasks"`
	Resources Resources    `json:"resources"`
}

// CCReport is the congestion-control section of a Report: one entry per
// shared-bottleneck group run, in deterministic (experiment, label) order.
type CCReport struct {
	Groups []CCGroup `json:"groups"`
}

// CCGroup is one shared-bottleneck contention group's summary.
type CCGroup struct {
	// Experiment is the catalog experiment that ran the group ("fairness"
	// or "ccmix"); Label distinguishes the group within it (variant name
	// plus channel condition, e.g. "cubic/storm" or "mix/clean").
	Experiment string `json:"experiment"`
	Label      string `json:"label"`
	// JainIndex is Jain's fairness index over the group's per-flow
	// throughputs: 1 is perfectly fair, 1/n maximally unfair.
	JainIndex float64        `json:"jain_index"`
	Flows     []CCFlowResult `json:"flows"`
}

// CCFlowResult is one contending flow's outcome.
type CCFlowResult struct {
	ID              string  `json:"id"`
	CC              string  `json:"cc"`
	ThroughputPps   float64 `json:"throughput_pps"`
	Retransmissions int64   `json:"retransmissions"`
	Timeouts        int64   `json:"timeouts"`
	FastRetransmits int64   `json:"fast_retransmits"`
}

// WriteJSON writes the report as indented JSON. The counter sections are
// deterministic; see the field docs for the wall-clock exceptions.
func (r *Report) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("telemetry: encode report: %w", err)
	}
	return bw.Flush()
}
