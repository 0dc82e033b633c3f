package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/railway"
	"repro/internal/stats"
)

// EifelPoint is one seed's plain-vs-Eifel comparison.
type EifelPoint struct {
	PlainPps           float64
	EifelPps           float64
	Timeouts           int
	SpuriousRecoveries int64
}

// EifelResult studies the Eifel-style spurious-RTO response
// (tcp.Config.SpuriousRTORecovery) on the HSR channel: since roughly half
// (in our channel most) timeouts are spurious, undoing the needless window
// collapse should recover part of the throughput the paper shows being
// lost — an experiment the paper's findings directly motivate.
type EifelResult struct {
	Operator  string
	Points    []EifelPoint
	MeanGain  float64 // mean relative throughput gain
	TotalUndo int64   // total recoveries classified spurious and undone
}

// Eifel runs the comparison over several seeds on China Mobile's channel.
func Eifel(cfg Config) (*EifelResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		return nil, err
	}
	start, _ := trip.CruiseWindow()
	res := &EifelResult{Operator: cellular.ChinaMobileLTE.Name}
	var gains []float64
	for i := 0; i < cfg.PairsPerOperator*2; i++ {
		base := dataset.Scenario{
			ID:           fmt.Sprintf("eifel-%d", i),
			Operator:     cellular.ChinaMobileLTE,
			Trip:         trip,
			TripOffset:   start + time.Duration(i)*31*time.Second,
			FlowDuration: cfg.FlowDuration,
			Seed:         cfg.Seed*613 + int64(i),
			TCP:          defaultTCP(),
			Scenario:     "hsr",
		}
		plain, err := dataset.RunSolo(dataset.Flow{Scenario: base})
		if err != nil {
			return nil, err
		}
		withEifel := base
		withEifel.TCP.SpuriousRTORecovery = true
		eifel, err := dataset.RunSolo(dataset.Flow{Scenario: withEifel})
		if err != nil {
			return nil, err
		}
		plainStats, eifelStats := plain.Stats(), eifel.Stats()
		pt := EifelPoint{
			PlainPps:           plainStats.ThroughputPps(),
			EifelPps:           eifelStats.ThroughputPps(),
			Timeouts:           int(eifelStats.Timeouts),
			SpuriousRecoveries: eifelStats.SpuriousRecoveries,
		}
		res.Points = append(res.Points, pt)
		res.TotalUndo += pt.SpuriousRecoveries
		if pt.PlainPps > 0 {
			gains = append(gains, (pt.EifelPps-pt.PlainPps)/pt.PlainPps)
		}
	}
	res.MeanGain = stats.Mean(gains)
	return res, nil
}

// Render prints the study.
func (r *EifelResult) Render() string {
	t := export.NewTable("flow", "plain pps", "eifel pps", "gain", "timeouts", "undone")
	for i, p := range r.Points {
		gain := 0.0
		if p.PlainPps > 0 {
			gain = (p.EifelPps - p.PlainPps) / p.PlainPps
		}
		t.AddRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.1f", p.PlainPps), fmt.Sprintf("%.1f", p.EifelPps),
			export.Percent(gain), fmt.Sprintf("%d", p.Timeouts),
			fmt.Sprintf("%d", p.SpuriousRecoveries))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Eifel-style spurious-RTO response on %s HSR\n", r.Operator)
	b.WriteString(t.Render())
	fmt.Fprintf(&b, "mean throughput gain %s; %d spurious recoveries undone\n",
		export.Percent(r.MeanGain), r.TotalUndo)
	return b.String()
}

// SensitivityLevel is one handoff-duration scale factor's outcome.
type SensitivityLevel struct {
	Scale        float64
	MeanRecovery time.Duration
	MeanDPadhye  float64
	MeanDEnh     float64
	MeanTputPps  float64
}

// ChannelSensitivityResult sweeps the handoff outage duration (the
// mechanism behind the paper's two findings) and shows how the Padhye
// model's error grows with outage length while the enhanced model tracks —
// the dose-response curve behind Fig 10.
type ChannelSensitivityResult struct {
	Operator string
	Levels   []SensitivityLevel
}

// ChannelSensitivity scales China Mobile's handoff windows by 0.5x, 1x and
// 2x and evaluates both models at each level.
func ChannelSensitivity(cfg Config) (*ChannelSensitivityResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		return nil, err
	}
	start, _ := trip.CruiseWindow()
	res := &ChannelSensitivityResult{Operator: cellular.ChinaMobileLTE.Name}
	for _, scale := range []float64{0.5, 1, 2} {
		op := cellular.ChinaMobileLTE
		op.HandoffMin = time.Duration(float64(op.HandoffMin) * scale)
		op.HandoffMax = time.Duration(float64(op.HandoffMax) * scale)
		var rec time.Duration
		var recN int
		var padDs, enhDs, tputs []float64
		for i := 0; i < cfg.PairsPerOperator*2; i++ {
			sc := dataset.Scenario{
				ID:           fmt.Sprintf("sens-%.1f-%d", scale, i),
				Operator:     op,
				Trip:         trip,
				TripOffset:   start + time.Duration(i)*31*time.Second,
				FlowDuration: cfg.FlowDuration,
				Seed:         cfg.Seed*827 + int64(i),
				TCP:          defaultTCP(),
				Scenario:     "hsr",
			}
			m, err := cfg.analyzeFlow(sc)
			if err != nil {
				return nil, err
			}
			prm := core.ParamsFromMetrics(m)
			pad, err := core.Padhye(prm)
			if err != nil {
				return nil, err
			}
			enh, err := core.Enhanced(prm)
			if err != nil {
				return nil, err
			}
			padDs = append(padDs, core.Deviation(pad, m.ThroughputPps))
			enhDs = append(enhDs, core.Deviation(enh, m.ThroughputPps))
			tputs = append(tputs, m.ThroughputPps)
			if len(m.Recoveries) > 0 {
				rec += m.MeanRecoveryDuration
				recN++
			}
		}
		lvl := SensitivityLevel{
			Scale:       scale,
			MeanDPadhye: stats.Mean(padDs),
			MeanDEnh:    stats.Mean(enhDs),
			MeanTputPps: stats.Mean(tputs),
		}
		if recN > 0 {
			lvl.MeanRecovery = rec / time.Duration(recN)
		}
		res.Levels = append(res.Levels, lvl)
	}
	return res, nil
}

// Render prints the sweep.
func (r *ChannelSensitivityResult) Render() string {
	t := export.NewTable("handoff scale", "mean recovery", "mean pps", "mean D Padhye", "mean D enhanced")
	for _, l := range r.Levels {
		t.AddRow(fmt.Sprintf("%.1fx", l.Scale),
			fmt.Sprintf("%.2fs", l.MeanRecovery.Seconds()),
			fmt.Sprintf("%.1f", l.MeanTputPps),
			export.Percent(l.MeanDPadhye), export.Percent(l.MeanDEnh))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Channel ablation — handoff outage duration sweep (%s)\n", r.Operator)
	b.WriteString(t.Render())
	b.WriteString("longer outages lengthen recoveries and widen Padhye's error; the enhanced model tracks\n")
	return b.String()
}
