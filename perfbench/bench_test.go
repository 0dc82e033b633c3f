package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/tracing"
)

// The benchmark's self-test: every workload at a tiny size, the metric
// names against BENCHMARK.json, seed sensitivity, the traced flow
// reconstruction, the paper-suite rendering against hsrbench, and a clean
// fleet shutdown. Run it from this directory with `go test ./...`.

func testOpts(t *testing.T, seconds float64) opts {
	digests, err := readDigests(filepath.Join("testdata", "paper-suite.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	perLayer, err := readPerLayer(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return opts{
		seed: 3, seconds: seconds, work: t.TempDir(), out: t.TempDir(),
		digests: digests, perLayer: perLayer,
		log: func(format string, args ...any) { t.Logf(format, args...) },
	}
}

// registered reads the metric names BENCHMARK.json registers.
func registered(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloads, endToEnd, perLayer
}

func names(m metrics) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

func checkOutcome(t *testing.T, what string, out *outcome, want []string) {
	t.Helper()
	if out.attempted < 1 || out.failed != 0 {
		t.Errorf("%s: %d attempted, %d failed", what, out.attempted, out.failed)
	}
	if err := checkNames(out.metrics); err != nil {
		t.Errorf("%s: %v", what, err)
	}
	if got := names(out.metrics); !reflect.DeepEqual(got, sorted(want)) {
		t.Errorf("%s reports\n  %v\nBENCHMARK.json registers\n  %v", what, got, sorted(want))
	}
	for k, v := range out.metrics {
		if v.Value != v.Value { // NaN
			t.Errorf("%s: metric %s is NaN", what, k)
		}
	}
}

func TestWorkloadsRegistered(t *testing.T) {
	ws, e2e, _ := registered(t)
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(sorted(have), sorted(ws)) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", have, ws)
	}
	var list []string
	for _, e := range endToEnd {
		list = append(list, e.name)
	}
	if !reflect.DeepEqual(sorted(list), sorted(e2e)) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", list, e2e)
	}
}

func TestTinyEndToEnd(t *testing.T) {
	_, e2e, _ := registered(t)
	op := testOpts(t, 0.3)
	runs := map[string]func() (*outcome, error){
		"paper-suite":  func() (*outcome, error) { return runPaperSuite(op) },
		"cached-sweep": func() (*outcome, error) { return runCachedSweep(op) },
		"fleet-jobs":   func() (*outcome, error) { return runFleetJobs(op) },
	}
	for name, run := range runs {
		out, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkOutcome(t, name, out, e2e)
	}
}

// TestTracedRun runs the whole layer profile of the cheapest workload:
// every registered per-layer metric must be reported (0 for the layers
// fleet-jobs does not call), and the span file must validate.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run takes a few seconds")
	}
	_, _, perLayer := registered(t)
	op := testOpts(t, 0.3)
	w, err := findWorkload("fleet-jobs")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runWorkload(w, op, true)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "fleet-jobs traced", out, perLayer)
	f, err := os.Open(filepath.Join(op.out, "trace-fleet-jobs-3.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := tracing.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracing.Validate(spans); err != nil {
		t.Fatal(err)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a, b := newSweepPlan(1), newSweepPlan(2)
	var pa, pb []step
	for i := 0; i < 10; i++ {
		pa, pb = append(pa, a.next()), append(pb, b.next())
	}
	if reflect.DeepEqual(pa, pb) {
		t.Error("sweep plans of seeds 1 and 2 are equal")
	}
	if reflect.DeepEqual(jobSpec(1, 0), jobSpec(2, 0)) {
		t.Error("fleet job specs of seeds 1 and 2 are equal")
	}
	if suiteConfig(1).Seed == suiteConfig(2).Seed {
		t.Error("suite configs of seeds 1 and 2 are equal")
	}
	for _, w := range workloads {
		if reflect.DeepEqual(flowSample(w.name, 1), flowSample(w.name, 2)) {
			t.Errorf("%s: flow samples of seeds 1 and 2 are equal", w.name)
		}
	}
	// The same seed gives the same inputs.
	c := newSweepPlan(1)
	for i := 0; i < 10; i++ {
		if got := c.next(); got != pa[i] {
			t.Fatalf("step %d of seed 1 differs between plans", i)
		}
	}
}

// TestTracedFlowReproducesRunFlowMetrics checks the rebuilt flow and the
// replayed analyzer agree with dataset.RunFlowMetrics, and that every
// count of the flow-layer profile repeats exactly.
func TestTracedFlowReproducesRunFlowMetrics(t *testing.T) {
	op := testOpts(t, 0.3)
	tr := tracing.New("test")
	sample := flowSample("fleet-jobs", op.seed)
	first, err := flowLayers(op, tr, "", sample)
	if err != nil {
		t.Fatal(err)
	}
	if first.failed != 0 {
		t.Fatalf("%d of %d rebuilt flows differ from RunFlowMetrics", first.failed, first.attempted)
	}
	second, err := flowLayers(op, tr, "", sample)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"sim.events", "cellular.queries", "netem.packets", "tcp.acks", "analysis.events", "dataset.allocs_per_flow"} {
		if first.metrics[k] != second.metrics[k] {
			t.Errorf("%s: %v then %v", k, first.metrics[k].Value, second.metrics[k].Value)
		}
	}
}

// TestCacheCountsRepeat checks the traced sweep's cache counts are exact
// for a seed, evictions included.
func TestCacheCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced sweeps take several seconds")
	}
	op := testOpts(t, 0.3)
	var runs [2]*outcome
	for i := range runs {
		out, err := cachedSweepLayers(op, tracing.New("test"), "")
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Fatalf("%d sweep points failed", out.failed)
		}
		runs[i] = out
	}
	for _, k := range []string{"dataset.cache.hit_ratio", "dataset.cache.evictions", "dataset.cache.bytes_per_entry"} {
		if runs[0].metrics[k] != runs[1].metrics[k] {
			t.Errorf("%s: %v then %v", k, runs[0].metrics[k].Value, runs[1].metrics[k].Value)
		}
	}
	if runs[0].metrics["dataset.cache.evictions"].Value == 0 {
		t.Error("the bounded sweep evicted nothing")
	}
}

// TestPaperSuiteMatchesHsrbench compares the in-process rendering with the
// CLI's stdout at quick scale.
func TestPaperSuiteMatchesHsrbench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hsrbench")
	}
	bin := filepath.Join(t.TempDir(), "hsrbench")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/hsrbench").CombinedOutput(); err != nil {
		t.Fatalf("build hsrbench: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-quick", "-run", "all,fairness,ccmix", "-jobs", "2", "-seed", "3")
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("hsrbench: %v", err)
	}
	p, err := runSuitePass(suiteConfig(3), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(stdout)
	if got, want := sha256Hex(p.output), hex.EncodeToString(sum[:]); got != want {
		t.Errorf("in-process rendering %s, hsrbench stdout %s", got, want)
	}
}

// TestFleetShutsDownCleanly starts the fleet, runs jobs, stops it, and
// checks no listener accepts and no goroutine is left behind.
func TestFleetShutsDownCleanly(t *testing.T) {
	base := runtime.NumGoroutine()
	f, err := startFleet(3)
	if err != nil {
		t.Fatal(err)
	}
	g := newLoadgen(testOpts(t, 0.3), f)
	g.round(nil, "", floors{})
	if g.out.failed != 0 {
		t.Errorf("%d jobs failed", g.out.failed)
	}
	urls := []string{f.front.url}
	for _, w := range f.workers {
		urls = append(urls, w.url)
	}
	if err := f.stop(); err != nil {
		t.Fatal(err)
	}
	for _, u := range urls {
		if c, err := net.Dial("tcp", strings.TrimPrefix(u, "http://")); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections", u)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the fleet, %d after it stopped:\n%s", base, n, buf[:runtime.Stack(buf, true)])
	}
}
