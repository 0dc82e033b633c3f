// Package mptcp models the two multipath-TCP deployments discussed in
// Section V-B of the paper:
//
//   - Duplex mode: the sender stripes data over several subflows. The paper
//     itself evaluates this by running two concurrent single-path TCP flows
//     whose paths share no bottleneck and summing their throughput (Fig 12);
//     RunDuplex reproduces exactly that methodology, giving each subflow an
//     independently seeded radio channel.
//   - Backup mode: data flows on one subflow, but when a retransmission
//     timeout fires, the lost segment is retransmitted on both the original
//     subflow and the backup subflow, and acknowledgements are mirrored on
//     the backup return path. This double-retransmission is the paper's
//     proposed mechanism for reducing q, the recovery-phase retransmission
//     loss rate.
package mptcp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// SubflowResult carries one subflow's endpoint counters and trace metrics.
type SubflowResult struct {
	Stats   tcp.Stats
	Metrics *analysis.FlowMetrics
}

// DuplexResult is the outcome of a duplex-mode run.
type DuplexResult struct {
	Subflows []SubflowResult
	// ThroughputPps is the aggregate delivery rate over all subflows.
	ThroughputPps float64
}

// subflow derives subflow i of a multipath run on base: its own ID and an
// independent seed, so each subflow sees its own channel.
func subflow(base dataset.Scenario, i int) dataset.Scenario {
	sc := base
	sc.ID = fmt.Sprintf("%s-sub%d", base.ID, i)
	sc.Seed = base.Seed*7919 + int64(i)*104729
	return sc
}

// RunDuplex runs n concurrent subflows, each a full TCP connection over an
// independently seeded channel of the same operator and trip, inside one
// simulation. It mirrors the paper's Fig 12 methodology (two flows with no
// shared bottleneck treated as MPTCP subflows). All subflows belong to one
// phone in one cell: they share the air interface capacity but see
// independent loss/outage processes.
func RunDuplex(base dataset.Scenario, n int) (*DuplexResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("mptcp: subflow count %d must be >= 1", n)
	}
	flows := make([]dataset.Flow, n)
	incs := make([]*analysis.Incremental, n)
	for i := range flows {
		sc := subflow(base, i)
		incs[i] = analysis.AcquireIncremental(sc.FlowMeta())
		defer incs[i].Release()
		flows[i] = dataset.Flow{Scenario: sc, Recorder: incs[i]}
	}
	conns, err := dataset.RunContended(flows)
	if err != nil {
		return nil, err
	}
	res := &DuplexResult{}
	var total int64
	for i, conn := range conns {
		m, err := incs[i].Finish()
		if err != nil {
			return nil, err
		}
		st := conn.Stats()
		total += st.UniqueDelivered
		res.Subflows = append(res.Subflows, SubflowResult{Stats: st, Metrics: m})
	}
	res.ThroughputPps = float64(total) / base.FlowDuration.Seconds()
	return res, nil
}

// BackupResult is the outcome of a backup-mode run.
type BackupResult struct {
	Stats   tcp.Stats
	Metrics *analysis.FlowMetrics
	// BackupRetransmits counts segments duplicated onto the backup subflow
	// after an RTO; BackupDelivered counts how many of those copies reached
	// the receiver.
	BackupRetransmits int
	BackupDelivered   int
	// BackupAcksDelivered counts cumulative ACKs that reached the sender via
	// the backup return path.
	BackupAcksDelivered int
}

// RunBackup runs one TCP flow on the primary path with a backup subflow used
// exclusively for reliability: every RTO retransmission is duplicated on the
// backup path and every cumulative ACK is mirrored on the backup return
// path. The retransmission succeeds if either copy (and either ACK path)
// survives, which is how MPTCP's double retransmission reduces the paper's
// q.
func RunBackup(base dataset.Scenario) (*BackupResult, error) {
	sc := base
	sc.ID += "-backup"
	inc := analysis.AcquireIncremental(sc.FlowMeta())
	defer inc.Release()
	res := &BackupResult{}
	wire := func(simulator *sim.Simulator, conn *tcp.Conn) error {
		backupSc := base
		backupSc.Seed = base.Seed*6700417 + 1
		backup, _, err := dataset.BuildPath(simulator, backupSc)
		if err != nil {
			return err
		}
		segSize := base.TCP.MSS + base.TCP.HeaderBytes
		conn.SetRetransmitHook(func(seq int64) {
			txNo := conn.LastTransmitNo(seq)
			if txNo < 1 {
				txNo = 1
			}
			res.BackupRetransmits++
			backup.Forward.Send(segSize, netem.HandlerFunc(func() {
				res.BackupDelivered++
				conn.DeliverData(seq, txNo)
			}))
		})
		conn.SetAckSendHook(func(ackNo int64) {
			// Mirror ACKs only while the sender is stuck in timeout recovery:
			// mirroring every ACK would make the later primary copy register
			// as a duplicate ACK and provoke needless fast retransmits.
			if !conn.InTimeoutRecovery() {
				return
			}
			backup.Reverse.Send(base.TCP.HeaderBytes, netem.HandlerFunc(func() {
				res.BackupAcksDelivered++
				conn.InjectAck(ackNo)
			}))
		})
		return nil
	}
	conn, err := dataset.RunSolo(dataset.Flow{Scenario: sc, Recorder: inc, Wire: wire})
	if err != nil {
		return nil, err
	}
	res.Stats = conn.Stats()
	if res.Metrics, err = inc.Finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// Improvement returns the relative throughput gain of a multipath run over
// a single-path baseline, e.g. 0.42 for the paper's 42.15% China Mobile
// duplex improvement.
func Improvement(multipath, single float64) float64 {
	if single <= 0 {
		return 0
	}
	return (multipath - single) / single
}
