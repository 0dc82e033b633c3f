package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The distributed merge path rests on three properties of Campaign
// aggregation, tested here over randomized shard partitions of a seeded
// synthetic campaign:
//
//  1. identity — merging an empty campaign is a no-op, merging into an
//     empty campaign copies (exact, byte for byte);
//  2. associativity / commutativity-up-to-flow-order — integer counter
//     sections are exact under any partition and any merge nesting; the
//     floating-point distributions agree to within rounding (the Chan
//     et al. combine is order-sensitive in the last bits, which is WHY
//     the coordinator merges per flow in flow order rather than merging
//     shard aggregates);
//  3. flow-order replay — adding the same flows in the same flow order
//     is byte-identical no matter how they were partitioned across
//     workers. This is the exact invariant the coordinator uses.

// intSections marshals everything except the float distributions, for exact
// comparison under arbitrary merge nesting.
func intSections(t *testing.T, c *Campaign) []byte {
	t.Helper()
	s := c.Snapshot()
	s.TCP.Cwnd = Dist{} // float accumulator excluded; checked with tolerance
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return raw
}

// distClose compares two distributions to within relative rounding slack.
func distClose(a, b *Dist) bool {
	if a.N() != b.N() {
		return false
	}
	if a.N() == 0 {
		return true
	}
	rel := func(x, y float64) float64 {
		d := math.Abs(x - y)
		if d == 0 {
			return 0
		}
		return d / math.Max(math.Abs(x), math.Abs(y))
	}
	return rel(a.Mean(), b.Mean()) < 1e-9 && rel(a.Max(), b.Max()) == 0
}

// shardCampaign partitions flows into shards by the seeded rng and
// aggregates each shard with AddFlow in flow order.
func shardCampaign(flows []*Flow, rng *rand.Rand, shards int) []*Campaign {
	assign := make([]int, len(flows))
	for i := range assign {
		assign[i] = rng.Intn(shards)
	}
	out := make([]*Campaign, shards)
	for s := 0; s < shards; s++ {
		out[s] = NewCampaign()
		for i, f := range flows {
			if assign[i] == s {
				out[s].AddFlow(f)
			}
		}
	}
	return out
}

func seededFlows(seed int64, n int) []*Flow {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]*Flow, n)
	for i := range flows {
		flows[i] = randomFlow(rng)
	}
	return flows
}

func TestCampaignMergeIdentity(t *testing.T) {
	flows := seededFlows(11, 20)
	ref := NewCampaign()
	for _, f := range flows {
		ref.AddFlow(f)
	}
	refBytes := campaignBytes(t, ref)

	// Merging an empty campaign is a no-op, byte for byte.
	ref.Merge(NewCampaign())
	if got := campaignBytes(t, ref); !bytes.Equal(refBytes, got) {
		t.Fatalf("merging empty changed the campaign:\n%s\nvs\n%s", refBytes, got)
	}
	// Merging into an empty campaign copies, byte for byte.
	empty := NewCampaign()
	empty.Merge(ref)
	if got := campaignBytes(t, empty); !bytes.Equal(refBytes, got) {
		t.Fatalf("merge into empty is not a copy:\n%s\nvs\n%s", refBytes, got)
	}
	// Self-merge is a no-op by contract.
	ref.Merge(ref)
	if got := campaignBytes(t, ref); !bytes.Equal(refBytes, got) {
		t.Fatalf("self-merge changed the campaign")
	}
}

func TestCampaignMergePartitionProperties(t *testing.T) {
	flows := seededFlows(23, 40)
	ref := NewCampaign()
	for _, f := range flows {
		ref.AddFlow(f)
	}
	refInts := intSections(t, ref)
	refTCP := ref.Snapshot().TCP

	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		shards := shardCampaign(flows, rng, 1+rng.Intn(6))

		// Merge the shard aggregates in a random nesting and order:
		// integer sections must match the single-node aggregate exactly,
		// distributions to within rounding.
		order := rng.Perm(len(shards))
		merged := NewCampaign()
		for _, s := range order {
			merged.Merge(shards[s])
		}
		if got := intSections(t, merged); !bytes.Equal(refInts, got) {
			t.Fatalf("trial %d: integer sections diverged under partition %v:\n%s\nvs\n%s",
				trial, order, refInts, got)
		}
		gotTCP := merged.Snapshot().TCP
		if !distClose(&refTCP.Cwnd, &gotTCP.Cwnd) {
			t.Fatalf("trial %d: cwnd distribution outside rounding slack: ref n=%d mean=%v, got n=%d mean=%v",
				trial, refTCP.Cwnd.N(), refTCP.Cwnd.Mean(), gotTCP.Cwnd.N(), gotTCP.Cwnd.Mean())
		}

		// Associativity of the shard merges: left fold vs right-leaning
		// nesting, integer sections exact.
		if len(shards) >= 3 {
			left := NewCampaign()
			left.Merge(shards[0])
			left.Merge(shards[1])
			left.Merge(shards[2])
			rightInner := NewCampaign()
			rightInner.Merge(shards[1])
			rightInner.Merge(shards[2])
			right := NewCampaign()
			right.Merge(shards[0])
			right.Merge(rightInner)
			if a, b := intSections(t, left), intSections(t, right); !bytes.Equal(a, b) {
				t.Fatalf("trial %d: integer sections not associative:\n%s\nvs\n%s", trial, a, b)
			}
		}
	}
}

// TestCampaignFlowOrderReplayExact is the coordinator's actual merge
// discipline: workers ship per-flow bundles, the coordinator replays
// AddFlow in global flow order. Any partition of flows across workers must
// then produce a byte-identical campaign — including the float sections.
func TestCampaignFlowOrderReplayExact(t *testing.T) {
	flows := seededFlows(47, 40)
	ref := NewCampaign()
	for _, f := range flows {
		ref.AddFlow(f)
	}
	refBytes := campaignBytes(t, ref)

	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		// Partition into contiguous ranges like the coordinator's units.
		nUnits := 1 + rng.Intn(8)
		cuts := map[int]bool{0: true, len(flows): true}
		for len(cuts) < nUnits+1 {
			cuts[rng.Intn(len(flows))] = true
		}
		bounds := make([]int, 0, len(cuts))
		for c := range cuts {
			bounds = append(bounds, c)
		}
		sort.Ints(bounds)

		// Each unit round-trips its flows through the wire form (as a
		// remote worker would); the coordinator replays in flow order.
		type unit struct{ restored []*Flow }
		units := make([]unit, len(bounds)-1)
		for u := 0; u < len(units); u++ {
			for i := bounds[u]; i < bounds[u+1]; i++ {
				state := flows[i].State()
				raw, err := json.Marshal(&state)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				var dec FlowState
				if err := json.Unmarshal(raw, &dec); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				units[u].restored = append(units[u].restored, dec.Restore())
			}
		}
		merged := NewCampaign()
		for _, u := range units {
			for _, f := range u.restored {
				merged.AddFlow(f)
			}
		}
		if got := campaignBytes(t, merged); !bytes.Equal(refBytes, got) {
			t.Fatalf("trial %d (bounds %v): flow-order replay not byte-identical:\n%s\nvs\n%s",
				trial, bounds, refBytes, got)
		}
	}
}
