package repro_test

// Golden digests: the rendered output of every catalog experiment and the
// quick campaign counters, pinned per seed in testdata/golden. Any change to
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

// goldenRun renders hsrbench -quick -run all,fairness,ccmix -jobs 2 -seed
// seed in-process, with campaign telemetry attached (which must not change
// a byte of the output), and returns the DAG's task results plus the
// metrics report's campaign section as canonical JSON without wall_ns.
func goldenRun(t *testing.T, seed int64) ([]experiments.TaskResult, []byte) {
	t.Helper()
	cfg := experiments.Quick()
	cfg.Seed = seed
	cfg.Parallelism = goldenJobs
	camp := telemetry.NewCampaign()
	cfg.Telemetry = camp
	names := append(experiments.DefaultCatalogNames(), "fairness", "ccmix")
	ctx := context.Background()
	start := time.Now()
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
			t.Fatalf("seed %d: task %s: %v", seed, r.Name, r.Err)
		}
	}
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
			tasksPath := filepath.Join(dir, fmt.Sprintf("tasks-seed%d.sha256", seed))
			campPath := filepath.Join(dir, fmt.Sprintf("campaign-seed%d.json", seed))

			var whole strings.Builder
			var lines strings.Builder
			fmt.Fprintf(&lines, "# SHA-256 of each catalog task's rendered output: hsrbench -quick -run all,fairness,ccmix -jobs 2 -seed %d (amd64).\n", seed)
			fmt.Fprintf(&lines, "# Regenerate with: go test -run TestGolden -update .\n")
			for _, r := range results {
				whole.WriteString(r.Output)
				fmt.Fprintf(&lines, "%s %s\n", r.Name, sha256Hex(r.Output))
			}
			if *updateGolden {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(tasksPath, []byte(lines.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(campPath, campaign, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			want := readDigests(t, tasksPath)
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

			key := fmt.Sprint(seed)
			if w, ok := suite[key]; !ok {
				t.Errorf("perfbench/testdata/paper-suite.sha256 has no line for seed %d", seed)
			} else if got := sha256Hex(whole.String()); got != w {
				t.Errorf("whole-suite digest %s, perfbench/testdata/paper-suite.sha256 has %s", got[:12], w[:12])
			}

			wantCamp, err := os.ReadFile(campPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(wantCamp) != string(campaign) {
				t.Errorf("campaign counters differ from %s:\n got: %s\nwant: %s", campPath, campaign, wantCamp)
			}
		})
	}
}
