package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// causeWrong marks an operation whose output differed from its
// reference; every other failure cause leaves the run's outputs correct.
const causeWrong = "wrong_output"

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// samples is a sorted set of raw latencies in milliseconds. Failed
// operations sort above every success, as missing every limit.
type samples struct {
	ms []float64
	// charge is the value a failed operation reports at (ms).
	charge float64
}

// latencySamples sorts lats; an operation with failed[i] set counts as
// +Inf and, if a percentile lands on it, reports as limit (or as the
// slowest observed operation when limit is 0).
func latencySamples(lats []time.Duration, failed []bool, limit time.Duration) samples {
	s := samples{ms: make([]float64, len(lats))}
	slowest := 0.0
	for i, d := range lats {
		ms := float64(d) / 1e6
		slowest = math.Max(slowest, ms)
		if failed[i] {
			ms = math.Inf(1)
		}
		s.ms[i] = ms
	}
	sort.Float64s(s.ms)
	s.charge = slowest
	if limit > 0 {
		s.charge = float64(limit) / 1e6
	}
	return s
}

// exact sorts raw samples (ms) that all succeeded.
func exact(ms []float64) samples {
	s := samples{ms: append([]float64(nil), ms...)}
	sort.Float64s(s.ms)
	return s
}

func (s samples) n() int { return len(s.ms) }

// quantile is the exact q-quantile of the raw samples, interpolated
// linearly between the two nearest ranks (so the median of an even count
// is the mean of the middle two). A quantile that touches a failed
// operation reads as the charge.
func (s samples) quantile(q float64) float64 {
	if len(s.ms) == 0 {
		return 0
	}
	h := q * float64(len(s.ms)-1)
	lo := int(h)
	hi := min(lo+1, len(s.ms)-1)
	if math.IsInf(s.ms[hi], 1) {
		return s.charge
	}
	return s.ms[lo] + (h-float64(lo))*(s.ms[hi]-s.ms[lo])
}

// highestSupported names the highest standard percentile that has at
// least ten samples above it.
func (s samples) highestSupported() string {
	best := "none"
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		n := len(s.ms)
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			best = fmt.Sprintf("p%g (%.4g ms)", q*100, s.quantile(q))
		}
	}
	return best
}

// interval is a closed span of time on one clock.
type interval struct{ lo, hi time.Duration }

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi time.Duration, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	return unionLen(clipped)
}

// unionLen returns the length of the union of ivs.
func unionLen(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// rate divides a count by a duration, 0 when the duration is.
func rate(n uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
