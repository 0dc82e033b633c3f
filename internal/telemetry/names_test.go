package telemetry

import (
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// fillInts sets every exported int64 field under v, depth first, to
// successive multiples of 7, so each counter carries a distinct value.
func fillInts(v reflect.Value, next *int64) {
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			*next += 7
			f.SetInt(*next)
			*next += 7 * int64(retiredAfter[v.Type().Name()+"."+sf.Name])
		case reflect.Struct:
			fillInts(f, next)
		}
	}
}

// retiredAfter counts the counters deleted since testdata/exposition.txt was
// recorded, keyed by the field each run of them followed, so fillInts skips
// their values and every surviving counter keeps its recorded one. The
// kernel's timing-wheel counters cascades and rearms_in_place followed
// max_pending, and max_slot_occupancy followed max_batch.
var retiredAfter = map[string]int{
	"Kernel.MaxPending": 2,
	"Kernel.MaxBatch":   1,
}

// fixedCounters builds a two-flow campaign (with two congestion-control
// variants), a cache and a fleet whose counters all differ.
func fixedCounters() (*Campaign, *Cache, *Fleet) {
	var next int64
	camp := NewCampaign()
	for i := 0; i < 2; i++ {
		f := NewFlow()
		fillInts(reflect.ValueOf(f).Elem(), &next)
		for j := 0; j < 5; j++ {
			f.TCP.Cwnd.Add(float64(3*j + i))
			f.TCP.CwndHist.Add(float64(5*j + i))
			f.TCP.BackoffHist.Add(float64(j + i))
		}
		for _, name := range []string{"reno", "cubic"} {
			s := f.TCP.CC(name)
			fillInts(reflect.ValueOf(s).Elem(), &next)
			s.CwndHist.Add(float64(4 * i))
		}
		camp.AddFlow(f)
	}
	var c Cache
	fillInts(reflect.ValueOf(&c).Elem(), &next)
	var fl Fleet
	fillInts(reflect.ValueOf(&fl).Elem(), &next)
	return camp, &c, &fl
}

// TestExpositionNamesStable pins the exposition recorded before the counter
// table drove it (testdata/exposition.txt): every recorded line must still
// appear verbatim, so a metric may be added but never renamed, dropped or
// revalued.
func TestExpositionNamesStable(t *testing.T) {
	want, err := os.ReadFile("testdata/exposition.txt")
	if err != nil {
		t.Fatal(err)
	}
	camp, c, fl := fixedCounters()
	var b strings.Builder
	e := NewTextExposer(&b, "svc_")
	e.Campaign(camp)
	e.Counters(c)
	e.Counters(fl)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, line := range strings.Split(b.String(), "\n") {
		got[line] = true
	}
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if !got[line] {
			t.Errorf("exposition lost %q", line)
		}
	}
	for _, line := range []string{
		"svc_tcp_acks_dropped_total 840",
		"svc_tcp_recovery_retx_drops_total 938",
		`svc_tcp_cc_spurious_recoveries_total{cc="reno"} 1386`,
		"svc_kernel_pool_hits_total 546",
		"svc_tcp_cwnd_count 10",
	} {
		if !got[line] {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

// TestDocsCoverCounters asserts every counter field's JSON key appears in
// backticks in docs/OBSERVABILITY.md.
func TestDocsCoverCounters(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	var walk func(reflect.Type)
	walk = func(t2 reflect.Type) {
		for i := 0; i < t2.NumField(); i++ {
			sf := t2.Field(i)
			if !sf.IsExported() {
				continue
			}
			if sf.Anonymous {
				walk(sf.Type)
				continue
			}
			key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if !strings.Contains(doc, "`"+key+"`") {
				t.Errorf("docs/OBSERVABILITY.md does not mention `%s` (%s.%s)", key, t2.Name(), sf.Name)
			}
			switch {
			case sf.Type == distType || sf.Type == histType:
			case sf.Type == byCCType:
				walk(byCCType.Elem().Elem())
			case sf.Type.Kind() == reflect.Struct:
				walk(sf.Type)
			}
		}
	}
	for _, v := range []any{Campaign{}, Cache{}, Fleet{}} {
		walk(reflect.TypeOf(v))
	}
}

// TestCampaignAddFlowAllocs pins the table-driven merge at zero allocations
// once the campaign has seen every congestion-control variant.
func TestCampaignAddFlowAllocs(t *testing.T) {
	f := randomFlow(rand.New(rand.NewSource(1)))
	f.TCP.CC("reno").Flows = 1
	f.TCP.CC("cubic").Flows = 1
	c := NewCampaign()
	c.AddFlow(f)
	if a := testing.AllocsPerRun(1000, func() { c.AddFlow(f) }); a != 0 {
		t.Fatalf("AddFlow allocates %v allocs/op, want 0", a)
	}
}
