// mptcp_comparison reproduces the paper's Fig 12 experiment in miniature:
// move the same payload once over a single TCP flow and once over two
// concurrent MPTCP-style subflows, per carrier, and report the improvement.
// It also demonstrates backup-mode double retransmission (Section V-B).
//
// Run with:
//
//	go run ./examples/mptcp_comparison
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/mptcp"
	"repro/internal/railway"
	"repro/internal/tcp"
)

func main() {
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		log.Fatal(err)
	}
	start, _ := trip.CruiseWindow()

	const segments = 3000 // ~4.3 MB at the default MSS
	fmt.Printf("transferring %d segments per run (single flow vs 2 subflows)\n\n", segments)

	for _, op := range cellular.Operators() {
		scenario := dataset.Scenario{
			ID:           "mptcp-" + op.Name,
			Operator:     op,
			Trip:         trip,
			TripOffset:   start,
			FlowDuration: 10 * time.Minute, // horizon, not target duration
			Seed:         7,
			TCP:          tcp.DefaultConfig(),
			Scenario:     "hsr",
		}
		single, duplex, improvement, err := mptcp.CompareSized(scenario, segments)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s single TCP %6.1f pps   MPTCP duplex %6.1f pps   improvement %+.1f%%\n",
			op.Name, single, duplex, improvement*100)
	}

	// Backup mode: the same primary flow, but every RTO retransmission is
	// duplicated over a second subflow.
	fmt.Println("\nbackup mode (double retransmission) on China Mobile:")
	scenario := dataset.Scenario{
		ID:           "backup-demo",
		Operator:     cellular.ChinaMobileLTE,
		Trip:         trip,
		TripOffset:   start,
		FlowDuration: 90 * time.Second,
		Seed:         7,
		TCP:          tcp.DefaultConfig(),
		Scenario:     "hsr",
	}
	plain, _, err := dataset.RunFlowMetrics(scenario)
	if err != nil {
		log.Fatal(err)
	}
	backup, err := mptcp.RunBackup(scenario)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  plain TCP : q = %5.1f%%, mean recovery %5.2f s, %6.1f pps\n",
		plain.RecoveryLossRate*100, plain.MeanRecoveryDuration.Seconds(), plain.ThroughputPps)
	fmt.Printf("  backup    : q = %5.1f%%, mean recovery %5.2f s, %6.1f pps (%d retransmissions duplicated)\n",
		backup.Metrics.RecoveryLossRate*100, backup.Metrics.MeanRecoveryDuration.Seconds(),
		backup.Metrics.ThroughputPps, backup.BackupRetransmits)
}
