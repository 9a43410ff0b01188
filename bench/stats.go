package main

import (
	"fmt"
	"sort"
)

// median returns the middle of vs (mean of the two middles for an even
// count), 0 for none. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (0..1, nearest rank) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLevels are the percentiles a report may quote, highest first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.95, 0.90}

// tail is the highest percentile a sample supports: the highest of
// tailLevels with at least ten samples beyond it. A sample too small even
// for p90 reports its median.
type tail struct {
	level float64 // e.g. 0.99
	value float64
	n     int // sample count, printed beside every percentile
}

func (t tail) String() string {
	return fmt.Sprintf("p%g=%.3f (n=%d)", t.level*100, t.value, t.n)
}

// highestTail picks the tail of sorted (ascending).
func highestTail(sorted []float64) tail {
	n := len(sorted)
	for _, l := range tailLevels {
		if float64(n)*(1-l) >= 10-1e-9 { // 1-l is not exact in binary
			return tail{level: l, value: quantile(sorted, l), n: n}
		}
	}
	return tail{level: 0.5, value: quantile(sorted, 0.5), n: n}
}
