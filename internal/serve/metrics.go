package serve

import (
	"net/http"

	"repro/internal/buildinfo"
	"repro/internal/telemetry"
)

// handleMetrics renders the server's counters in Prometheus text
// exposition: pool gauges, job lifecycle totals, the shared flow cache's
// counters, and the campaign aggregate merged over every completed job.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	x := telemetry.NewTextExposer(w, "hsrserved_")
	x.Comment("hsrserved server state")
	x.BuildInfo(buildinfo.Version())
	x.Int("workers", int64(s.cfg.Workers))
	x.Int("queue_depth", s.pl.depth())
	x.Int("queue_capacity", int64(s.cfg.QueueDepth))
	x.Int("jobs_running", s.pl.active())
	draining := int64(0)
	if s.draining.Load() {
		draining = 1
	}
	x.Int("draining", draining)
	x.Comment("job lifecycle totals")
	x.Int("jobs_submitted_total", s.submitted.Load())
	x.Int("jobs_accepted_total", s.accepted.Load())
	x.Int("jobs_rejected_total", s.rejected.Load())
	x.Int("jobs_completed_total", s.completed.Load())
	x.Int("jobs_failed_total", s.failed.Load())
	x.Int("streams_aborted_total", s.streamsAborted.Load())
	s.latMu.Lock()
	qw, ud := s.queueWait, s.unitDur
	s.latMu.Unlock()
	x.Comment("job latency summaries (ms)")
	x.Dist("job_queue_wait_ms", &qw)
	x.Dist("unit_duration_ms", &ud)
	if s.cfg.FleetCounters != nil {
		f := s.cfg.FleetCounters()
		x.Comment("distributed campaign fleet")
		x.Counters(&f)
	}
	if s.cfg.Cache != nil {
		cc := s.cfg.Cache.Counters()
		x.Comment("shared flow-result cache")
		x.Counters(&cc)
	}
	// One snapshot, so a scrape racing a job's merge never mixes sections
	// from before and after it.
	if agg := s.agg.Snapshot(); agg.FlowCount > 0 {
		x.Comment("campaign counters aggregated over all jobs")
		x.Counters(agg)
	}
	if err := x.Flush(); err != nil {
		s.cfg.Log.Warn("metrics write failed", "err", err)
	}
}
