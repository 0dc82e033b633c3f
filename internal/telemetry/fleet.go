package telemetry

// Fleet counts distributed-campaign activity on a coordinator: how the
// flow-range work units moved through the worker fleet and how often the
// robustness machinery (retries, reassignment, hedging, local fallback)
// had to step in. Every field is a host-side resource counter — like wall
// clock, none of them influence the simulated results, which stay
// byte-identical at any fleet size and under any failure schedule.
type Fleet struct {
	// Workers is the configured fleet size (gauge, max-merged).
	Workers int64 `json:"workers" merge:"max"`
	// Units counts the flow-range work units planned; UnitsDispatched counts
	// dispatch attempts to remote workers (including retries and hedges);
	// UnitsCompleted counts units whose result was accepted (exactly once
	// per unit); UnitsLocal counts units the coordinator executed itself —
	// retry-budget exhaustion or degraded (workerless) mode.
	Units           int64 `json:"units"`
	UnitsDispatched int64 `json:"units_dispatched"`
	UnitsCompleted  int64 `json:"units_completed"`
	UnitsLocal      int64 `json:"units_local"`
	// Retries counts unit re-dispatches after a failed or timed-out attempt;
	// Reassignments counts units whose accepted result came from a different
	// worker than their first attempt; Hedges counts duplicate dispatches of
	// straggling tail units; DuplicateResults counts results discarded
	// because the unit had already completed (hedges and reassigned units
	// racing — harmless, since unit results are deterministic).
	Retries          int64 `json:"retries"`
	Reassignments    int64 `json:"reassignments"`
	Hedges           int64 `json:"hedges"`
	DuplicateResults int64 `json:"duplicate_results"`
	// WorkersLost counts healthy->unhealthy transitions (heartbeat or unit
	// failures past the tolerance); WorkersReadmitted counts the reverse.
	WorkersLost       int64 `json:"workers_lost"`
	WorkersReadmitted int64 `json:"workers_readmitted"`
	// Degraded counts campaigns that lost every worker and finished locally.
	Degraded int64 `json:"degraded" metric:"degraded_campaigns_total"`
}
