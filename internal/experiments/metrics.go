package experiments

import (
	"runtime"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/telemetry"
)

// MetricsReport assembles the typed telemetry report for one scheduled run:
// campaign counter totals (deterministic for a seed at any parallelism),
// per-task outcomes and wall/allocation resources, and cache activity. Both
// cmd/hsrbench (-metrics) and the hsrserved job results build their reports
// here, so the two surfaces stay byte-comparable on the deterministic
// sections. camp and cache may be nil; the campaign section is attached only
// when campaign flows actually ran (a fully warm cache run reports none,
// identically on both surfaces).
func MetricsReport(tool string, seed int64, camp *telemetry.Campaign, cache *telemetry.Cache, results []TaskResult, wallStart time.Time) *telemetry.Report {
	rep := &telemetry.Report{
		Tool:    tool,
		Version: buildinfo.Version(),
		Seed:    seed,
	}
	if cache != nil {
		cc := *cache
		rep.Cache = &cc
	}
	var snap *telemetry.Campaign
	if camp != nil {
		if snap = camp.Snapshot(); snap.FlowCount > 0 {
			rep.Campaign = snap
		}
	}
	for _, r := range results {
		tr := telemetry.TaskReport{
			Name:       r.Name,
			Status:     "ok",
			WallMS:     float64(r.Wall) / float64(time.Millisecond),
			Mallocs:    r.Mallocs,
			AllocBytes: r.AllocBytes,
		}
		switch {
		case r.Skipped:
			tr.Status = "skipped"
		case r.Err != nil:
			tr.Status = "failed"
		}
		if r.Err != nil {
			tr.Error = r.Err.Error()
		}
		rep.Tasks = append(rep.Tasks, tr)
	}
	wall := time.Since(wallStart)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.Resources = telemetry.Resources{
		WallMS:          float64(wall) / float64(time.Millisecond),
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		NumGC:           ms.NumGC,
	}
	if snap != nil && wall > 0 {
		rep.Resources.VirtualPerWall = float64(snap.Kernel.VirtualNS) / float64(wall.Nanoseconds())
	}
	return rep
}
