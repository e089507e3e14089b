package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the definition numpy and R use by default). xs need not
// be sorted; it is not modified.
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

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minTailSamples is the sample count below which only a median is
// reported: a percentile needs at least tailBeyond samples beyond it.
const (
	minTailSamples = 40
	tailBeyond     = 10
)

// tailQuantile is the highest quantile n samples support: the median
// under minTailSamples samples, otherwise the quantile with exactly
// tailBeyond samples beyond it.
func tailQuantile(n int) float64 {
	if n < minTailSamples {
		return 0.5
	}
	return 1 - float64(tailBeyond)/float64(n)
}

// percentileOf reports the q-quantile of xs, refusing a tail the sample
// count cannot support (tailQuantile(len(xs)) < q). The median is
// always reportable from one sample on.
func percentileOf(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if q > 0.5 && tailQuantile(len(xs)) < q {
		return 0, fmt.Errorf("p%g needs %d samples, have %d",
			100*q, samplesFor(q), len(xs))
	}
	return quantile(xs, q), nil
}

// samplesFor is the smallest sample count whose tail reaches q.
func samplesFor(q float64) int {
	n := int(math.Ceil(float64(tailBeyond)/(1-q) - 1e-9))
	if n < minTailSamples {
		n = minTailSamples
	}
	return n
}

// rate is count per second of d.
func rate(count float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return count / d.Seconds()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
