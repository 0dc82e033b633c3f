package dataset

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/railway"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// TestReportModelFit prints per-operator mean deviations (run with -v).
func TestReportModelFit(t *testing.T) {
	if testing.Short() {
		t.Skip("reporting test")
	}
	hsr, _ := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	var allPad, allEnh []float64
	for _, op := range cellular.Operators() {
		var padD, enhD []float64
		for seed := int64(1); seed <= 16; seed++ {
			start, _ := hsr.CruiseWindow()
			m, _, err := RunFlowMetrics(Scenario{
				ID: "fit", Operator: op, Trip: hsr, TripOffset: start + time.Duration(seed)*29*time.Second,
				FlowDuration: 120 * time.Second, Seed: seed, TCP: tcp.DefaultConfig(), Scenario: "hsr",
			})
			if err != nil {
				t.Fatal(err)
			}
			prm := core.ParamsFromMetrics(m)
			pad, _ := core.Padhye(prm)
			enh, _ := core.Enhanced(prm)
			padD = append(padD, core.Deviation(pad, m.ThroughputPps))
			enhD = append(enhD, core.Deviation(enh, m.ThroughputPps))
		}
		fmt.Printf("%-14s MEAN D: padhye=%5.1f%% enhanced=%5.1f%%\n", op.Name, stats.Mean(padD)*100, stats.Mean(enhD)*100)
		allPad = append(allPad, padD...)
		allEnh = append(allEnh, enhD...)
	}
	fmt.Printf("OVERALL MEAN D: padhye=%5.1f%% enhanced=%5.1f%%\n", stats.Mean(allPad)*100, stats.Mean(allEnh)*100)
}
