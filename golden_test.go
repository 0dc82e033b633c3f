package repro_test

// Golden digests: the rendered output of every catalog experiment and the
// quick campaign counters, plus the Fig 1/2 and window output at Default()
// scale, pinned per seed in testdata/golden. Any change to
// the simulator, the analyzer or a renderer that moves a single output byte
// fails here and names the experiment that moved.
//
// Regenerate after an intended output change (and say why in CHANGES.md):
//
//	go test -run TestGolden -update .

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden digests in testdata/golden")

// goldenSeeds are the workload seeds whose outputs are pinned.
var goldenSeeds = []int64{0, 1}

// goldenJobs matches hsrbench -jobs 2 and the paper-suite benchmark.
const goldenJobs = 2

// goldenDefaultNames are the experiments pinned at Default() scale: the
// exemplar-flow tasks, whose search exits early there (attempt 0 already
// has enough timeout sequences), unlike at Quick() scale where every
// candidate runs. No campaign runs, so each seed takes tens of milliseconds.
var goldenDefaultNames = []string{"fig1", "fig2", "window"}

// runCatalog runs the named catalog experiments under cfg on goldenJobs
// workers and fails the test on any task error.
func runCatalog(t *testing.T, cfg experiments.Config, names []string) []experiments.TaskResult {
	t.Helper()
	cfg.Parallelism = goldenJobs
	ctx := context.Background()
	cat, err := experiments.NewCatalog(ctx, cfg, names, experiments.CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := experiments.RunDAGContext(ctx, cat.Tasks, goldenJobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("seed %d: task %s: %v", cfg.Seed, r.Name, r.Err)
		}
	}
	return results
}

// goldenRun renders hsrbench -quick -run all,fairness,ccmix -jobs 2 -seed
// seed in-process, with campaign telemetry attached (which must not change
// a byte of the output), and returns the DAG's task results plus the
// metrics report's campaign section as canonical JSON without wall_ns.
func goldenRun(t *testing.T, seed int64) ([]experiments.TaskResult, []byte) {
	t.Helper()
	cfg := experiments.Quick()
	cfg.Seed = seed
	camp := telemetry.NewCampaign()
	cfg.Telemetry = camp
	start := time.Now()
	results := runCatalog(t, cfg, append(experiments.DefaultCatalogNames(), "fairness", "ccmix"))
	raw, err := json.Marshal(experiments.MetricsReport("hsrbench", seed, camp, nil, results, start))
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	section, ok := rep["campaign"].(map[string]any)
	if !ok {
		t.Fatalf("seed %d: metrics report has no campaign section", seed)
	}
	delete(section, "wall_ns")
	canon, err := json.MarshalIndent(section, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return results, append(canon, '\n')
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// readDigests parses "<key> <sha256>" lines, skipping blanks and # comments.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkTaskDigests compares each task's output digest with the "<task>
// <sha256>" lines at path, first rewriting the file under -update; the
// header names the command whose output the digests pin.
func checkTaskDigests(t *testing.T, path, header string, results []experiments.TaskResult) {
	t.Helper()
	if *updateGolden {
		var lines strings.Builder
		fmt.Fprintf(&lines, "# SHA-256 of each catalog task's rendered output: %s (amd64).\n", header)
		fmt.Fprintf(&lines, "# Regenerate with: go test -run TestGolden -update .\n")
		for _, r := range results {
			fmt.Fprintf(&lines, "%s %s\n", r.Name, sha256Hex(r.Output))
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(lines.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want := readDigests(t, path)
	seen := map[string]bool{}
	for _, r := range results {
		seen[r.Name] = true
		w, ok := want[r.Name]
		switch {
		case !ok:
			t.Errorf("task %s: no golden digest recorded", r.Name)
		case sha256Hex(r.Output) != w:
			t.Errorf("task %s: output digest %s, golden %s", r.Name, sha256Hex(r.Output)[:12], w[:12])
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("task %s: golden digest recorded but the catalog no longer runs it", name)
		}
	}
}

func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; Go may fuse floating-point multiply-adds on %s, which moves output bytes", runtime.GOARCH)
	}
	suite := readDigests(t, filepath.Join("perfbench", "testdata", "paper-suite.sha256"))
	dir := filepath.Join("testdata", "golden")
	for _, seed := range goldenSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			results, campaign := goldenRun(t, seed)
			campPath := filepath.Join(dir, fmt.Sprintf("campaign-seed%d.json", seed))
			checkTaskDigests(t, filepath.Join(dir, fmt.Sprintf("tasks-seed%d.sha256", seed)),
				fmt.Sprintf("hsrbench -quick -run all,fairness,ccmix -jobs 2 -seed %d", seed), results)

			var whole strings.Builder
			for _, r := range results {
				whole.WriteString(r.Output)
			}
			key := fmt.Sprint(seed)
			if w, ok := suite[key]; !ok {
				t.Errorf("perfbench/testdata/paper-suite.sha256 has no line for seed %d", seed)
			} else if got := sha256Hex(whole.String()); got != w {
				t.Errorf("whole-suite digest %s, perfbench/testdata/paper-suite.sha256 has %s", got[:12], w[:12])
			}

			if *updateGolden {
				if err := os.WriteFile(campPath, campaign, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wantCamp, err := os.ReadFile(campPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(wantCamp) != string(campaign) {
				t.Errorf("campaign counters differ from %s:\n got: %s\nwant: %s", campPath, campaign, wantCamp)
			}
		})
		t.Run(fmt.Sprintf("default-seed%d", seed), func(t *testing.T) {
			cfg := experiments.Default()
			cfg.Seed = seed
			checkTaskDigests(t, filepath.Join(dir, fmt.Sprintf("default-fig1-seed%d.sha256", seed)),
				fmt.Sprintf("hsrbench -run %s -seed %d", strings.Join(goldenDefaultNames, ","), seed),
				runCatalog(t, cfg, goldenDefaultNames))
		})
	}
}
