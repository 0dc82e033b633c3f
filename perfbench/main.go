// Command perfbench is the repository benchmark: one command that runs a
// named workload in-process, checks its outputs, and prints every metric by
// name with its unit. The last line of standard output is the JSON result
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced; with
// -trace 1 they are the per-layer ones, from a separate traced run. See
// README.md for the workloads, the metric definitions and how the layer
// metrics map onto the end-to-end ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/tracing"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a named metric set.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// merge copies every metric of o into m.
func (m metrics) merge(o metrics) {
	for k, v := range o {
		m[k] = v
	}
}

// opts are the settings every workload runs under.
type opts struct {
	seed    int64
	seconds float64
	// work is a scratch directory for caches, removed at exit; out keeps
	// the span traces of traced runs.
	work, out string
	// digests is the stored paper-suite digest table (nil: none stored).
	digests map[int64]string
	// perLayer maps each registered per-layer metric to its unit.
	perLayer map[string]string
	// log receives human-oriented progress lines (standard error).
	log func(format string, args ...any)
}

// outcome is what a workload run reports: operations attempted and failed
// (errors or failed correctness checks) plus its metrics.
type outcome struct {
	attempted int
	failed    int
	metrics   metrics
}

// add folds another outcome's operations and metrics into o.
func (o *outcome) add(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.metrics == nil {
		o.metrics = metrics{}
	}
	o.metrics.merge(p.metrics)
}

// fail records one failed operation with its reason.
func (o *outcome) fail(op opts, format string, args ...any) {
	o.failed++
	op.log("FAILED: "+format, args...)
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// run measures the workload untraced and returns the end-to-end metrics.
	run func(opts) (*outcome, error)
	// layers runs the traced workload and returns the metrics of the layers
	// it calls (trace.overhead_share included); spans go to tr under parent.
	layers func(op opts, tr *tracing.Trace, parent string) (*outcome, error)
}

var workloads = []workload{
	{name: "paper-suite", run: runPaperSuite, layers: paperSuiteLayers},
	{name: "cached-sweep", run: runCachedSweep, layers: cachedSweepLayers},
	{name: "fleet-jobs", run: runFleetJobs, layers: fleetJobsLayers},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// endToEnd lists the end-to-end metric names and units every workload
// reports with -trace 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"round_ms_floor", "ms"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames verifies every metric name and unit is well formed.
func checkNames(m metrics) error {
	for name, v := range m {
		if !metricName.MatchString(name) {
			return fmt.Errorf("bad metric name %q", name)
		}
		if v.Unit == "" {
			return fmt.Errorf("metric %q has no unit", name)
		}
	}
	return nil
}

// runWorkload executes one benchmark run: the untraced end-to-end
// measurement, or the traced layer profile.
func runWorkload(w workload, op opts, traced bool) (*outcome, error) {
	if !traced {
		out, err := w.run(op)
		if err != nil {
			return nil, err
		}
		for _, e := range endToEnd {
			v, ok := out.metrics[e.name]
			if !ok || v.Unit != e.unit {
				return nil, fmt.Errorf("workload %s did not report %s [%s]", w.name, e.name, e.unit)
			}
		}
		return out, nil
	}
	tr := tracing.New(fmt.Sprintf("perfbench-%s-%d", w.name, op.seed))
	root := tr.StartSpan("", "run", w.name)
	total := &outcome{metrics: metrics{}}

	// The flow-layer profile runs first, in a process with no servers or
	// campaign workers running, so allocation counts are attributable.
	fl, err := flowLayers(op, tr, root.ID(), flowSample(w.name, op.seed))
	if err != nil {
		return nil, fmt.Errorf("flow layers: %w", err)
	}
	total.add(fl)

	own, err := w.layers(op, tr, root.ID())
	if err != nil {
		return nil, err
	}
	total.add(own)
	root.End()
	for name := range total.metrics {
		if _, ok := op.perLayer[name]; !ok {
			return nil, fmt.Errorf("workload %s reports %s, which BENCHMARK.json does not register", w.name, name)
		}
	}
	// A layer the workload never calls reports 0: no calls, no cost.
	for name, unit := range op.perLayer {
		if _, ok := total.metrics[name]; !ok {
			total.metrics.set(name, 0, unit)
		}
	}
	path := filepath.Join(op.out, fmt.Sprintf("trace-%s-%d.json", w.name, op.seed))
	if err := writeTrace(tr, path); err != nil {
		return nil, err
	}
	op.log("wrote %d spans to %s (read with: traceanalyze -spans %s)", tr.Len(), path, path)
	return total, nil
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-suite, cached-sweep or fleet-jobs")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 20, "measured seconds of the untraced run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = untraced end-to-end run")
	root := fs.String("root", ".", "repository root (holds perfbench/)")
	out := fs.String("out", ".bench_build", "directory for scratch files and span traces")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return 2, err
	}
	// One process, at most two CPUs: the paper suite's DAG and campaign
	// parallelism is 2, and the fleet's two workers each hold one slot.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	} else {
		runtime.GOMAXPROCS(1)
	}
	digests, err := readDigests(filepath.Join(*root, "perfbench", "testdata", "paper-suite.sha256"))
	if err != nil {
		return 1, err
	}
	perLayer, err := readPerLayer(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 1, err
	}
	work, err := os.MkdirTemp(*out, "work-*")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(work)
	op := opts{
		seed: *seed, seconds: *seconds, work: work, out: *out, digests: digests, perLayer: perLayer,
		log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		},
	}
	start := time.Now()
	res, err := runWorkload(w, op, *traceFlag == 1)
	if err != nil {
		return 1, err
	}
	if err := checkNames(res.metrics); err != nil {
		return 1, err
	}
	if res.attempted < 1 {
		return 1, errors.New("no operation was attempted")
	}
	printTable(res.metrics)
	op.log("%s seed=%d trace=%d: %d ops, %d failed, %.1fs", w.name, *seed, *traceFlag,
		res.attempted, res.failed, time.Since(start).Seconds())
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

// readPerLayer reads the per-layer metrics BENCHMARK.json registers.
func readPerLayer(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]string{}
	for _, m := range b.PerLayer {
		out[m.Name] = m.Unit
	}
	return out, nil
}

// printTable prints every metric by name with its unit, one per line.
func printTable(m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
