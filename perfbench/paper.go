package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/tracing"
)

// The paper-suite workload: every catalog experiment (the default suite plus
// the opt-in fairness and ccmix) at experiments.Quick() scale, scheduled
// through NewCatalog + RunDAGContext with two DAG jobs and a campaign flow
// parallelism of two, no cache and no telemetry sink. This is what a user
// reproducing the paper runs, at the scale of hsrbench -quick; the per-event
// layers do nearly all the work. A round is one whole suite pass, and its
// operations are the catalog tasks.

// suiteJobs is the DAG and campaign flow parallelism of the paper suite.
const suiteJobs = 2

// suiteNames is the experiment list: hsrbench -run all,fairness,ccmix.
func suiteNames() []string {
	return append(experiments.DefaultCatalogNames(), "fairness", "ccmix")
}

// suiteConfig is the suite's configuration for a workload seed.
func suiteConfig(seed int64) experiments.Config {
	cfg := experiments.Quick()
	cfg.Seed = seed
	cfg.Parallelism = suiteJobs
	return cfg
}

// suitePass is one run of the whole suite: its rendered output (exactly
// what hsrbench prints on stdout), the DAG's task results and wall time.
type suitePass struct {
	output  string
	results []experiments.TaskResult
	wall    time.Duration
}

// runSuitePass builds the catalog and runs its DAG. With a non-nil tr every
// task is wrapped in a span under parent. Catalog construction is not part
// of the pass wall: it is the workload's set-up.
func runSuitePass(cfg experiments.Config, tr *tracing.Trace, parent string) (*suitePass, error) {
	ctx := context.Background()
	cat, err := experiments.NewCatalog(ctx, cfg, suiteNames(), experiments.CatalogOptions{})
	if err != nil {
		return nil, err
	}
	tasks := cat.Tasks
	if tr != nil {
		sp := tr.StartSpan(parent, "suite", fmt.Sprintf("seed-%d", cfg.Seed))
		defer sp.End()
		tasks = make([]experiments.Task, len(cat.Tasks))
		for i, t := range cat.Tasks {
			run := t.Run
			t.Run = func() (string, error) {
				ts := tr.StartSpan(sp.ID(), "task", t.Name)
				defer ts.End()
				return run()
			}
			tasks[i] = t
		}
	}
	start := time.Now()
	results, err := experiments.RunDAGContext(ctx, tasks, suiteJobs)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("task %s: %w", r.Name, r.Err)
		}
		b.WriteString(r.Output)
	}
	return &suitePass{output: b.String(), results: results, wall: wall}, nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// suiteChecker checks pass outputs: every pass of one seed must render the
// same bytes, and match the stored hsrbench digest for the seed when one is
// recorded.
type suiteChecker struct {
	want  string
	first string
}

func newSuiteChecker(op opts) *suiteChecker {
	c := &suiteChecker{want: op.digests[op.seed]}
	if c.want == "" {
		op.log("no stored paper-suite digest for seed %d: checking that passes agree only (record one with perfbench/record_digests.sh)", op.seed)
	}
	return c
}

// check reports whether the pass's output is correct.
func (c *suiteChecker) check(p *suitePass) error {
	got := sha256Hex(p.output)
	if c.first == "" {
		c.first = got
	}
	if got != c.first {
		return fmt.Errorf("pass output %s differs from the first pass %s", got[:12], c.first[:12])
	}
	if c.want != "" && got != c.want {
		return fmt.Errorf("pass output %s differs from the stored hsrbench digest %s", got[:12], c.want[:12])
	}
	return nil
}

// suiteRound runs one checked pass and returns its DAG wall; a failed pass
// counts in out.
func suiteRound(op opts, cfg experiments.Config, chk *suiteChecker, out *outcome, tr *tracing.Trace, parent string) (*suitePass, time.Duration) {
	out.attempted++
	start := time.Now()
	p, err := runSuitePass(cfg, tr, parent)
	if err != nil {
		out.fail(op, "suite pass: %v", err)
		return nil, time.Since(start)
	}
	if err := chk.check(p); err != nil {
		out.fail(op, "%v", err)
	}
	return p, p.wall
}

// runPaperSuite is the untraced end-to-end measurement.
func runPaperSuite(op opts) (*outcome, error) {
	cfg := suiteConfig(op.seed)
	out := &outcome{metrics: metrics{}}
	chk := newSuiteChecker(op)
	fl := floors{}
	var setup setups
	walls, err := repeatRounds(op, 3, func() (time.Duration, error) {
		for i := 0; i < 20; i++ {
			if err := setup.time(func() error {
				_, err := experiments.NewCatalog(context.Background(), cfg, suiteNames(), experiments.CatalogOptions{})
				return err
			}); err != nil {
				return 0, err
			}
		}
		p, d := suiteRound(op, cfg, chk, out, nil, "")
		if p != nil {
			for _, r := range p.results {
				fl.add(r.Name, r.Wall)
			}
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics.set("setup_s", setup.fastest(), "s")
	out.metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	roundStats(out.metrics, op, walls, fl)
	return out, nil
}

// suitePairs is how many untraced/traced pass pairs the traced run makes.
const suitePairs = 12

// paperSuiteLayers alternates untraced and traced passes: the traced ones
// give the per-task times (each task's fastest), the pairs the tracing
// overhead.
func paperSuiteLayers(op opts, tr *tracing.Trace, parent string) (*outcome, error) {
	cfg := suiteConfig(op.seed)
	chk := newSuiteChecker(op)
	out := &outcome{metrics: metrics{}}
	var traced *suitePass
	tasks := floors{}
	share, err := overheadShare(suitePairs, func(on bool) (time.Duration, error) {
		t := tr
		if !on {
			t = nil
		}
		p, d := suiteRound(op, cfg, chk, out, t, parent)
		if p == nil {
			return 0, fmt.Errorf("suite pass failed")
		}
		if on {
			traced = p
			for _, r := range p.results {
				tasks.add(r.Name, r.Wall)
			}
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	for name, walls := range tasks {
		out.metrics.set("experiments.task_s."+name, quantile(walls, 0)/1e3, "s")
	}
	var sum time.Duration
	for _, r := range traced.results {
		sum += r.Wall
	}
	out.metrics.set("experiments.slot_idle_share", 1-sum.Seconds()/(suiteJobs*traced.wall.Seconds()), "ratio")
	out.metrics.set("trace.overhead_share", share, "ratio")
	return out, nil
}

// readDigests loads the stored paper-suite digests: one "<seed> <sha256>"
// line per seed, '#' starting a comment. A missing file means none.
func readDigests(path string) (map[int64]string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[int64]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || len(fields[1]) != 64 {
			return nil, fmt.Errorf("%s:%d: want \"<seed> <sha256>\"", path, n)
		}
		seed, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out[seed] = fields[1]
	}
	return out, sc.Err()
}
