package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the percentiles a tail may be reported at, highest
// last: a tail is quoted at a round percentile so that runs with
// similar sample counts stay comparable.
var tailLadder = []float64{50, 75, 90, 95, 98, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported tail for it
// to mean more than the few worst samples.
const minBeyond = 10

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// tailPercentile is the highest ladder percentile, at most limit, with
// at least minBeyond of n samples beyond it; ok is false when even the
// median has fewer.
func tailPercentile(n int, limit float64) (p float64, ok bool) {
	for _, q := range tailLadder {
		if q > limit {
			break
		}
		if n-rankOf(q, n) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// dist summarises one latency sample set.
type dist struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64 // 100 marks the maximum: too few samples for a percentile
	mean    float64
}

// summarize sorts xs in place and reports its median and its tail: the
// highest ladder percentile up to limit with minBeyond samples beyond
// it, or the maximum when the sample is too small for any.
func summarize(xs []float64, limit float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	sort.Float64s(xs)
	d := dist{n: len(xs), p50: percentile(xs, 50)}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	d.mean = sum / float64(len(xs))
	if p, ok := tailPercentile(len(xs), limit); ok {
		d.tailPct, d.tail = p, percentile(xs, p)
	} else {
		d.tailPct, d.tail = 100, xs[len(xs)-1]
	}
	return d
}

// tailName labels the tail for human output.
func (d dist) tailName() string {
	if d.tailPct == 100 {
		return "max"
	}
	return fmt.Sprintf("p%g", d.tailPct)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
