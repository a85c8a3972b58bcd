package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailRungs are the percentiles latency_tail_ms may report, lowest first.
var tailRungs = []float64{50, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie above a percentile before it may
// stand for the tail.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
// The tolerance keeps p·n/100 exact where decimal p is not (99.9·10000/100
// is 9990.000000000002 in floating point).
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(p, len(sorted))]
}

// tail is the result of the tail-percentile rule.
type tail struct {
	P      float64       // the percentile reported
	Value  time.Duration // its value
	Beyond int           // samples strictly above its rank
	N      int           // samples in all
	// Resolved is false when even the median has fewer than minBeyond
	// samples beyond it; P is then 50.
	Resolved bool
}

// tailOf applies the rule: the highest rung with at least minBeyond
// samples beyond it, or the median, flagged, when no rung has.
func tailOf(sorted []time.Duration) tail {
	n := len(sorted)
	t := tail{P: 50, N: n}
	for _, p := range tailRungs {
		beyond := n - rankIndex(p, n) - 1
		if n == 0 || beyond < minBeyond {
			break
		}
		t.P, t.Beyond, t.Resolved = p, beyond, true
	}
	if !t.Resolved && n > 0 {
		t.Beyond = n - rankIndex(50, n) - 1
	}
	t.Value = percentile(sorted, t.P)
	return t
}

func (t tail) String() string {
	note := ""
	if !t.Resolved {
		note = fmt.Sprintf("; fewer than %d beyond any rung, so the median", minBeyond)
	}
	return fmt.Sprintf("p%g, %d of %d samples beyond%s", t.P, t.Beyond, t.N, note)
}

func sortedDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a share printed with its base: Num of Den.
type ratio struct {
	Num, Den int64
}

// Value is Num/Den, or 0 with an empty base.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

func (r ratio) String() string {
	if r.Den == 0 {
		return "n/a (0 of 0)"
	}
	return fmt.Sprintf("%.4f (%d of %d)", r.Value(), r.Num, r.Den)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
