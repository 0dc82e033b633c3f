package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// jsonOnly names the report leaves /metrics does not carry, by JSON key,
// each with the reason.
var jsonOnly = map[string]string{
	"pool_hit_rate":   "derived ratio: pool_hits / (pool_hits + pool_misses)",
	"budget_headroom": "derived ratio: 1 - events / budget_events",
	"bounds":          "Hist bucket bounds: a bucketed exposition is a separate change",
	"counts":          "Hist bucket counts: a bucketed exposition is a separate change",
	"std":             "Dist spread: the exposition is a count/sum/min/max summary",
}

// scrapeMetrics reads /metrics into a map from series (name plus labels)
// to value.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("get metrics: %v", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		out[strings.TrimPrefix(line[:i], "hsrserved_")] = v
	}
	return out
}

// TestMetricsCarryReportCounters runs one quick campaign job and checks
// every scalar leaf of the job report's campaign and cache sections against
// a /metrics scrape, by value, under the naming rule of
// docs/OBSERVABILITY.md: `<section>_<json key>` joined through
// subsections, `_total` for counters, a cc label for the per-variant
// breakdown and a count/sum/min/max family for a distribution.
func TestMetricsCarryReportCounters(t *testing.T) {
	cache, err := dataset.OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, QueueDepth: 1, Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	resp := postJob(t, ts.Client(), ts.URL,
		`{"kind":"campaign","seed":5,"quick":true,"duration":"5s","flows_per_row":1}`)
	last := terminal(t, readEvents(t, resp.Body))
	resp.Body.Close()
	if last.Event != "result" || last.Report == nil || last.Report.Campaign == nil {
		t.Fatalf("terminal %+v", last)
	}
	raw, err := json.Marshal(last.Report)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	scrape := scrapeMetrics(t, ts)

	var missing []string
	checked := 0
	check := func(path, series string, want float64) {
		checked++
		got, ok := scrape[series]
		if !ok {
			got, ok = scrape[strings.Replace(series, "{", "_total{", 1)]
		}
		if !ok && !strings.Contains(series, "{") {
			got, ok = scrape[series+"_total"]
		}
		switch {
		case !ok:
			missing = append(missing, fmt.Sprintf("%s (as %s)", path, series))
		case math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)):
			t.Errorf("%s: report %v, /metrics %s %v", path, want, series, got)
		}
	}
	var walk func(path, name, labels string, v any)
	walk = func(path, name, labels string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			if want, ok := v.(float64); ok {
				check(path, name+labels, want)
			} else {
				t.Errorf("%s: unexpected leaf %T", path, v)
			}
			return
		}
		if n, dist := obj["n"].(float64); dist {
			check(path+".n", name+"_count"+labels, n)
			if n > 0 {
				check(path+".min", name+"_min"+labels, obj["min"].(float64))
				check(path+".max", name+"_max"+labels, obj["max"].(float64))
				check(path+".mean", name+"_sum"+labels, obj["mean"].(float64)*n)
			}
			return
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch {
			case jsonOnly[k] != "":
			case k == "by_cc":
				for cc, s := range obj[k].(map[string]any) {
					walk(path+"."+k+"."+cc, name+"_cc", fmt.Sprintf(`{cc=%q}`, cc), s)
				}
			default:
				walk(path+"."+k, name+"_"+k, labels, obj[k])
			}
		}
	}
	campaign := rep["campaign"].(map[string]any)
	for k, v := range campaign {
		if _, section := v.(map[string]any); section {
			walk("campaign."+k, k, "", v)
		} else {
			walk("campaign."+k, "campaign_"+k, "", v)
		}
	}
	renamed := map[string]string{"bytes_read": "read_bytes", "bytes_written": "written_bytes"}
	for k, v := range rep["cache"].(map[string]any) {
		if r, ok := renamed[k]; ok {
			k = r
		}
		walk("cache."+k, "cache_"+k, "", v)
	}
	if checked < 60 {
		t.Errorf("checked only %d report leaves", checked)
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("report leaf missing from /metrics: %s", m)
	}
}
