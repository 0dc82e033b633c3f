package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/tracing"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// repeatRounds runs round back to back until op.seconds have passed, at
// least minRounds times, and returns each round's wall time in ms.
func repeatRounds(op opts, minRounds int, round func() (time.Duration, error)) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) < minRounds || time.Since(start).Seconds() < op.seconds {
		d, err := round()
		if err != nil {
			return nil, err
		}
		walls = append(walls, ms(d))
	}
	return walls, nil
}

// floors keeps every latency (ms) of each operation over a run's rounds.
type floors map[string][]float64

func (f floors) add(op string, d time.Duration) { f[op] = append(f[op], ms(d)) }

// sum returns the sum over operations of each one's fastest latency.
func (f floors) sum() float64 {
	var s float64
	for _, xs := range f {
		s += quantile(xs, 0)
	}
	return s
}

// roundStats sets round_ms_floor, the sum over a round's operations of the
// fastest each one ran, and logs the volatile figures beside it. The host's
// speed flips between a fast and a slow state for a quarter second to a few
// seconds at a time, so a median or a throughput over a run, or even its
// fastest whole round, reflects how long the run spent in the slow state;
// the fastest of many runs of each short operation does not.
func roundStats(m metrics, op opts, walls []float64, fl floors) {
	var sum float64
	for _, w := range walls {
		sum += w
	}
	m.set("round_ms_floor", fl.sum(), "ms")
	op.log("%d rounds of %d operations: floor %.2f ms; round min %.2f ms, p50 %.2f ms, p90 %.2f ms, %.3f rounds/s",
		len(walls), len(fl), fl.sum(), quantile(walls, 0), median(walls), quantile(walls, 0.9), float64(len(walls))/(sum/1e3))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// setups collects set-up times (seconds). The workloads take samples
// between rounds, so they spread over the run as the operation floors do,
// and setup_s is the fastest: set-up is short, and host delays only add to
// it.
type setups []float64

// time runs one complete set-up and records how long it took.
func (s *setups) time(fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return err
	}
	*s = append(*s, time.Since(start).Seconds())
	return nil
}

func (s setups) fastest() float64 { return quantile(s, 0) }

// writeTrace writes the recorded spans once, at the end of the traced run,
// in the format traceanalyze -spans reads.
func writeTrace(tr *tracing.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tracing.WriteTrace(f, tr.Spans())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// overheadShare alternates untraced and traced rounds of the same work,
// pairs times, and returns the median over the pairs of traced ÷ untraced
// − 1. Back-to-back rounds mostly share the host's state, so the ratio
// within a pair cancels it where a ratio of whole-run figures would not.
func overheadShare(pairs int, run func(traced bool) (time.Duration, error)) (float64, error) {
	var ratios []float64
	for i := 0; i < pairs; i++ {
		plain, err := run(false)
		if err != nil {
			return 0, err
		}
		traced, err := run(true)
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, float64(traced)/float64(plain))
	}
	return median(ratios) - 1, nil
}
