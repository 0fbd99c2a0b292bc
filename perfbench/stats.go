package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// samples is a set of measurements in milliseconds (or any unit the
// caller keeps consistent). Percentiles use the nearest-rank rule, so a
// reported percentile is always one of the measured values.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

// pct returns the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest sample with at least p% of the samples at or below it. It
// returns 0 for an empty set.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	return sorted[rank(len(sorted), p)]
}

// rank is the 0-based index of the nearest-rank p-th percentile of n
// sorted samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(k, 0), n-1)
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile's position: how many observations the percentile rests on
// in its tail.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// minTail is the number of samples every reported percentile must have
// beyond it: a tail percentile resting on fewer observations is one
// outlier away from a different value.
const minTail = 10

// tailCheck reports an error when the p-th percentile of n samples has
// fewer than minTail samples beyond it.
func tailCheck(name string, n int, p float64) error {
	if b := beyond(n, p); b < minTail {
		return fmt.Errorf("%s: p%g of %d samples has %d beyond it, need %d", name, p, n, b, minTail)
	}
	return nil
}

func (s samples) median() float64 { return s.pct(50) }

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summary formats the sample count and a ladder of percentiles.
func (s samples) summary() string {
	return fmt.Sprintf("n=%d p50=%.3f p75=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f", len(s), s.pct(50), s.pct(75), s.pct(90), s.pct(95), s.pct(99), s.pct(100))
}
