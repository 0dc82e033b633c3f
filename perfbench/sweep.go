package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/tcp"
	"repro/internal/tracing"
)

// The cached-sweep workload: a seeded sequence of quick-scale campaign
// "points" run through one FlowCache, the calibration pattern of a
// parameter search. A point is (campaign seed, delayed-ACK b, fault
// severity). A revisit point repeats one of the last few new points, so all
// of its flows hit; a new point has a fresh campaign seed, so all of its
// flows miss, simulate and are written. A byte bound on the cache forces
// evictions but always keeps the points a revisit can name.

const (
	sweepFlowsPerRow = 4
	sweepRows        = 4 // Table I rows
	sweepFlows       = sweepFlowsPerRow * sweepRows
	sweepDuration    = 45 * time.Second
	// Two of every five points are revisits. The share is fixed, and below
	// one half, so the latency median always falls inside the new points
	// instead of flipping between the two modes from run to run.
	sweepBlock    = 5
	sweepRevisits = 2
	// revisitWindow is how many recent new points a revisit draws from; the
	// cache bound holds revisitWindow+2 points, so they are always resident.
	revisitWindow = 4
)

var sweepDelack = []int{1, 2, 3}
var sweepSeverity = []float64{0, 0.5, 1}

// point is one sweep point.
type point struct {
	Seed     int64
	Delack   int
	Severity float64
}

// step is one entry of the sweep sequence.
type step struct {
	pt      point
	revisit bool
}

// sweepPlan generates the sweep sequence for a workload seed; the same seed
// always yields the same sequence. New points take the (b, severity)
// combinations in seeded random order, each once per nine new points, so
// every run has the same parameter mix; the seed picks the campaign seeds,
// the order and which recent point a revisit repeats.
type sweepPlan struct {
	rng    *rand.Rand
	base   int64
	steps  int
	fresh  int64
	combos []point
	recent []point
}

func newSweepPlan(seed int64) *sweepPlan {
	return &sweepPlan{rng: rand.New(rand.NewSource(seed)), base: seed * 1_000_000}
}

func (p *sweepPlan) next() step {
	p.steps++
	if len(p.recent) > 0 && p.steps%sweepBlock < sweepRevisits {
		return step{pt: p.recent[p.rng.Intn(len(p.recent))], revisit: true}
	}
	if len(p.combos) == 0 {
		for _, b := range sweepDelack {
			for _, sev := range sweepSeverity {
				p.combos = append(p.combos, point{Delack: b, Severity: sev})
			}
		}
		p.rng.Shuffle(len(p.combos), func(i, j int) { p.combos[i], p.combos[j] = p.combos[j], p.combos[i] })
	}
	pt := p.combos[0]
	p.combos = p.combos[1:]
	pt.Seed = p.base + p.fresh
	p.fresh++
	p.recent = append(p.recent, pt)
	if len(p.recent) > revisitWindow {
		p.recent = p.recent[1:]
	}
	return step{pt: pt}
}

// campaignConfig is the point's campaign. Flow parallelism is 1 so cache
// writes, and with them the eviction order, are the same in every run.
func (pt point) campaignConfig(cache *dataset.FlowCache) dataset.CampaignConfig {
	tc := tcp.DefaultConfig()
	tc.DelayedAckB = pt.Delack
	var sched *faults.Schedule
	if pt.Severity > 0 {
		sched = faults.Stress(sweepDuration).Scale(pt.Severity)
	}
	return dataset.CampaignConfig{
		Seed:         pt.Seed,
		FlowDuration: sweepDuration,
		FlowsPerRow:  sweepFlowsPerRow,
		TCP:          &tc,
		Faults:       sched,
		Parallelism:  1,
		Cache:        cache,
	}
}

// campaignDigest hashes a campaign's per-flow metrics in campaign order.
func campaignDigest(c *dataset.Campaign) (string, error) {
	raw, err := json.Marshal(c.Metrics())
	if err != nil {
		return "", err
	}
	return sha256Hex(string(raw)), nil
}

// sweepSteps is the length of the sweep every round replays: three blocks
// of five points, whose new points take each (b, severity) combination
// once. Each point is one operation of the round.
const sweepSteps = 15

// sweepSequence is the seed's sweep: the same steps in every round.
func sweepSequence(seed int64) []step {
	plan := newSweepPlan(seed)
	steps := make([]step, sweepSteps)
	for i := range steps {
		steps[i] = plan.next()
	}
	return steps
}

// sweeper replays the sweep sequence, one round at a time, each through a
// fresh cache, and checks every point.
type sweeper struct {
	op    opts
	steps []step
	// digests holds each new point's metrics digest from its first visit;
	// every later visit, a revisit or a later round's, must match.
	digests map[point]string
	fresh   []point
	// record keeps the point latencies by kind while set.
	record          bool
	hitLat, missLat []float64
	out             *outcome
	// cache is the current round's cache, in dir.
	cache   *dataset.FlowCache
	dir     string
	bounded bool
}

func newSweeper(op opts) *sweeper {
	return &sweeper{op: op, steps: sweepSequence(op.seed), digests: map[point]string{}, out: &outcome{metrics: metrics{}}}
}

// round replays the sequence through a fresh cache in a new directory (the
// previous round's is removed), records each point's latency in fl under
// its step, and returns the time spent in the points.
func (s *sweeper) round(tr *tracing.Trace, parent string, fl floors) (time.Duration, error) {
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil {
			return 0, err
		}
	}
	dir, err := os.MkdirTemp(s.op.work, "sweep-*")
	if err != nil {
		return 0, err
	}
	cache, err := dataset.OpenFlowCache(dir)
	if err != nil {
		return 0, err
	}
	s.cache, s.dir, s.bounded = cache, dir, false
	var total time.Duration
	for i, st := range s.steps {
		d := s.run(st, tr, parent)
		fl.add(strconv.Itoa(i), d)
		total += d
	}
	return total, nil
}

// run executes one step and returns its latency.
func (s *sweeper) run(st step, tr *tracing.Trace, parent string) time.Duration {
	s.out.attempted++
	c0 := s.cache.Counters()
	sp := tr.StartSpan(parent, "point", fmt.Sprintf("%d/b%d/s%g", st.pt.Seed, st.pt.Delack, st.pt.Severity))
	start := time.Now()
	camp, err := dataset.RunCampaign(st.pt.campaignConfig(s.cache))
	d := time.Since(start)
	sp.SetAttr("revisit", fmt.Sprint(st.revisit))
	sp.End()
	if err != nil {
		s.out.fail(s.op, "point %+v: %v", st.pt, err)
		return d
	}
	c1 := s.cache.Counters()
	hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	if st.revisit {
		if s.record {
			s.hitLat = append(s.hitLat, ms(d))
		}
		if hits != sweepFlows || misses != 0 {
			s.out.fail(s.op, "revisit point %+v: %d hits, %d misses (want all hits)", st.pt, hits, misses)
		}
	} else {
		if s.record {
			s.missLat = append(s.missLat, ms(d))
		}
		if misses != sweepFlows || hits != 0 {
			s.out.fail(s.op, "new point %+v: %d hits, %d misses (want all misses)", st.pt, hits, misses)
		}
		if !s.bounded {
			// Bound the cache once the first point's entry size is known:
			// the sizes, and so the bound, are a function of the seed.
			if err := s.cache.SetMaxBytes(c1.BytesWritten * (revisitWindow + 2)); err != nil {
				s.out.fail(s.op, "SetMaxBytes: %v", err)
			}
			s.bounded = true
		}
	}
	dig, err := campaignDigest(camp)
	if err != nil {
		s.out.fail(s.op, "point %+v: %v", st.pt, err)
		return d
	}
	if want, ok := s.digests[st.pt]; !ok {
		s.digests[st.pt] = dig
		s.fresh = append(s.fresh, st.pt)
	} else if dig != want {
		s.out.fail(s.op, "point %+v: metrics differ from its first visit", st.pt)
	}
	return d
}

// verify recomputes every distinct new point without a cache and compares:
// every other visit of a point was checked against the first.
func (s *sweeper) verify() {
	for _, pt := range s.fresh {
		cfg := pt.campaignConfig(nil)
		cfg.Parallelism = 2
		camp, err := dataset.RunCampaign(cfg)
		if err != nil {
			s.out.fail(s.op, "reference %+v: %v", pt, err)
			continue
		}
		dig, err := campaignDigest(camp)
		if err != nil || dig != s.digests[pt] {
			s.out.fail(s.op, "point %+v: metrics differ from an uncached RunCampaign", pt)
		}
	}
}

func runCachedSweep(op opts) (*outcome, error) {
	setupDir, err := os.MkdirTemp(op.work, "setup-*")
	if err != nil {
		return nil, err
	}
	var setup setups
	s := newSweeper(op)
	fl := floors{}
	walls, err := repeatRounds(op, 3, func() (time.Duration, error) {
		for i := 0; i < 5; i++ {
			if err := setup.time(func() error {
				_, err := dataset.OpenFlowCache(filepath.Join(setupDir, strconv.Itoa(len(setup))))
				return err
			}); err != nil {
				return 0, err
			}
		}
		return s.round(nil, "", fl)
	})
	if err != nil {
		return nil, err
	}
	m := s.out.metrics
	m.set("setup_s", setup.fastest(), "s")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	roundStats(m, op, walls, fl)
	s.verify()
	return s.out, nil
}

// sweepPairs is how many untraced/traced round pairs the traced run makes.
const sweepPairs = 12

// cachedSweepLayers alternates untraced and traced rounds (the tracing
// overhead), takes the cache counts of the last, traced, round and the
// point latencies of all traced rounds, then times the cache's Get and Put
// directly on the flows of the sequence's last new point.
func cachedSweepLayers(op opts, tr *tracing.Trace, parent string) (*outcome, error) {
	s := newSweeper(op)
	share, err := overheadShare(sweepPairs, func(on bool) (time.Duration, error) {
		s.record = on
		if on {
			return s.round(tr, parent, floors{})
		}
		return s.round(nil, "", floors{})
	})
	if err != nil {
		return nil, err
	}
	s.verify()
	out := s.out
	m := out.metrics
	c := s.cache.Counters()
	m.set("dataset.cache.hit_ratio", float64(c.Hits)/float64(c.Hits+c.Misses), "ratio")
	m.set("dataset.cache.evictions", float64(c.Evictions), "count")
	m.set("dataset.cache.bytes_per_entry", float64(c.BytesWritten)/float64(c.Misses), "B")
	m.set("sweep.hit_ms_p50", median(s.hitLat), "ms")
	m.set("sweep.miss_ms_p50", median(s.missLat), "ms")
	m.set("trace.overhead_share", share, "ratio")

	// Direct cache driver: Get every flow of the last new point (resident by
	// construction) and Put the same entries into an empty cache.
	last := s.fresh[len(s.fresh)-1]
	plan, err := dataset.PlanCampaign(last.campaignConfig(nil))
	if err != nil {
		return nil, err
	}
	dstDir, err := os.MkdirTemp(op.work, "put-*")
	if err != nil {
		return nil, err
	}
	dst, err := dataset.OpenFlowCache(dstDir)
	if err != nil {
		return nil, err
	}
	sp := tr.StartSpan(parent, "cache", "get-put")
	var gets, puts []float64
	for rep := 0; rep < 4; rep++ {
		for _, pf := range plan {
			start := time.Now()
			ent, ok := s.cache.Get(pf.Scenario)
			gets = append(gets, float64(time.Since(start))/1e3)
			if !ok {
				out.fail(op, "cache driver: flow %s of a resident point missed", pf.Scenario.ID)
				continue
			}
			start = time.Now()
			dst.Put(pf.Scenario, ent.Metrics, ent.Stats)
			puts = append(puts, float64(time.Since(start))/1e3)
		}
	}
	sp.End()
	m.set("dataset.cache.get_us_p50", median(gets), "us")
	m.set("dataset.cache.put_us_p50", median(puts), "us")
	return out, nil
}
