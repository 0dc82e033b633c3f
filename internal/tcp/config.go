// Package tcp implements a packet-granular TCP Reno endpoint pair (data
// sender and ACK-generating receiver) running over an emulated netem.Path
// inside a discrete-event simulation. It models exactly the mechanisms the
// paper's analysis and model depend on:
//
//   - slow start, congestion avoidance, triple-duplicate-ACK fast
//     retransmit + fast recovery,
//   - an RFC 6298 retransmission timer with exponential backoff capped at
//     64·T (the paper's timeout-sequence behaviour),
//   - cumulative acknowledgements with the delayed-ACK window b, so that a
//     whole round's worth of lost ACKs — and only that — can produce a
//     spurious retransmission timeout (the paper's "ACK burst loss"),
//   - a static receiver advertised window W_m (the paper's window
//     limitation).
//
// The sender transmits an infinite data stream of MSS-sized segments, the
// steady-state workload assumed by both the Padhye model and the paper's
// enhanced model.
package tcp

import (
	"fmt"
	"time"
)

// Variant selects the sender's loss-recovery behaviour.
type Variant int

// Supported congestion-control variants.
const (
	// VariantReno is classic Reno: any new ACK terminates fast recovery, so
	// windows with multiple losses usually end in a retransmission timeout.
	// This is the variant the paper models.
	VariantReno Variant = iota + 1
	// VariantNewReno implements RFC 6582-style partial-ACK handling: a new
	// ACK that does not cover the recovery point retransmits the next hole
	// and stays in fast recovery, often avoiding the timeout entirely.
	VariantNewReno
	// VariantCUBIC grows the window along the RFC 8312 cubic curve
	// W(t) = C(t-K)^3 + Wmax with a TCP-friendly region, reducing by the
	// factor 0.7 on loss. Loss recovery is NewReno-style.
	VariantCUBIC
	// VariantCompound adds a delay-based window (TCP Compound's dwnd,
	// binomial increase alpha*win^k with k = 0.75) on top of a Reno loss
	// window, backing the delay component off as queueing delay builds —
	// the mixed-CC regime analyzed by Poojary & Sharma.
	VariantCompound
	// VariantBBR is a model-based variant in the BBR spirit: it estimates
	// the bottleneck bandwidth and propagation RTT from the ACK stream and
	// caps the congestion window at a gain times the estimated BDP,
	// cycling probe gains instead of reacting to individual losses.
	VariantBBR
)

// Variants lists every supported congestion-control variant in enum order.
func Variants() []Variant {
	return []Variant{VariantReno, VariantNewReno, VariantCUBIC, VariantCompound, VariantBBR}
}

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantReno:
		return "reno"
	case VariantNewReno:
		return "newreno"
	case VariantCUBIC:
		return "cubic"
	case VariantCompound:
		return "compound"
	case VariantBBR:
		return "bbr"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config holds the tunables of one TCP connection.
type Config struct {
	// Variant selects Reno (the paper's subject) or NewReno loss recovery.
	Variant Variant
	// MSS is the segment payload size in bytes.
	MSS int
	// HeaderBytes models TCP/IP header overhead added to every data segment
	// on the wire; pure ACKs are HeaderBytes long.
	HeaderBytes int
	// InitialCwnd is the initial congestion window in packets.
	InitialCwnd float64
	// InitialSSThresh is the initial slow-start threshold in packets.
	InitialSSThresh float64
	// DelayedAckB is the paper's b: the number of in-order data packets the
	// receiver accumulates before emitting one cumulative ACK. 1 disables
	// delayed ACKs.
	DelayedAckB int
	// AdaptiveDelAck enables a TCP-DCA-style receiver (the adaptive
	// delayed-ACK direction the paper marks as future work, Section V-A):
	// the effective delayed-ACK window starts at 1 and grows toward
	// DelayedAckB after streaks of clean in-order delivery, collapsing back
	// to 1 the moment the receiver sees out-of-order or duplicate data — a
	// disturbed channel is exactly when ACKs are "precious".
	AdaptiveDelAck bool
	// DelAckTimeout bounds how long the receiver may hold a delayed ACK.
	DelAckTimeout time.Duration
	// WindowLimit is the paper's W_m: the receiver advertised window in
	// packets; the sender's effective window is min(cwnd, WindowLimit).
	WindowLimit int
	// MinRTO and MaxRTO clamp the RFC 6298 retransmission timeout before
	// backoff is applied.
	MinRTO time.Duration
	MaxRTO time.Duration
	// MaxBackoff caps the exponential backoff: the timer doubles up to
	// 2^MaxBackoff times the base RTO (6 gives the classic 64·T cap).
	MaxBackoff int
	// SpuriousRTORecovery enables an Eifel-style response (RFC 3522/4015
	// spirit) to the spurious timeouts the paper measures: the receiver
	// marks ACKs triggered by duplicate payload (a DSACK-like signal), and
	// when such an ACK ends a timeout recovery the sender knows the timeout
	// was spurious — the original data had arrived — so it restores the
	// pre-timeout congestion state and skips the go-back-N resend instead
	// of slow-starting from one segment.
	SpuriousRTORecovery bool
}

// DefaultConfig returns the configuration used across the experiments: a
// 1448-byte MSS, delayed ACKs every 2 segments, a 64-packet advertised
// window, and a 400 ms minimum RTO (between the RFC 6298 1 s floor and the
// 200 ms of Linux, matching the sub-second stationary recoveries in the
// paper's traces).
func DefaultConfig() Config {
	return Config{
		Variant:         VariantReno,
		MSS:             1448,
		HeaderBytes:     52,
		InitialCwnd:     2,
		InitialSSThresh: 32,
		DelayedAckB:     2,
		DelAckTimeout:   200 * time.Millisecond,
		WindowLimit:     28,
		MinRTO:          400 * time.Millisecond,
		MaxRTO:          60 * time.Second,
		MaxBackoff:      6,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Variant < VariantReno || c.Variant > VariantBBR {
		return fmt.Errorf("tcp: unknown variant %v", c.Variant)
	}
	if c.MSS <= 0 {
		return fmt.Errorf("tcp: MSS %d must be positive", c.MSS)
	}
	if c.HeaderBytes < 0 {
		return fmt.Errorf("tcp: HeaderBytes %d must be non-negative", c.HeaderBytes)
	}
	if c.InitialCwnd < 1 {
		return fmt.Errorf("tcp: InitialCwnd %v must be >= 1", c.InitialCwnd)
	}
	if c.InitialSSThresh < 2 {
		return fmt.Errorf("tcp: InitialSSThresh %v must be >= 2", c.InitialSSThresh)
	}
	if c.DelayedAckB < 1 {
		return fmt.Errorf("tcp: DelayedAckB %d must be >= 1", c.DelayedAckB)
	}
	if c.DelayedAckB > 1 && c.DelAckTimeout <= 0 {
		return fmt.Errorf("tcp: DelAckTimeout must be positive when delayed ACKs are on")
	}
	if c.WindowLimit < 2 {
		return fmt.Errorf("tcp: WindowLimit %d must be >= 2", c.WindowLimit)
	}
	if c.MinRTO <= 0 || c.MaxRTO < c.MinRTO {
		return fmt.Errorf("tcp: RTO bounds [%v, %v] invalid", c.MinRTO, c.MaxRTO)
	}
	if c.MaxBackoff < 0 || c.MaxBackoff > 16 {
		return fmt.Errorf("tcp: MaxBackoff %d outside [0, 16]", c.MaxBackoff)
	}
	return nil
}
