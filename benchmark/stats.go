package main

import (
	"math"

	gen "github.com/encdbdb/encdbdb/internal/workload"
)

// median is the nearest-rank 50th percentile, the definition the repo's other
// experiments use (workload.Percentile); 0 for no samples.
func median(samples []float64) float64 { return gen.Percentile(samples, 0.5) }

// relGap is |a-b| as a share of their mean, the figure -selfcheck compares
// against a metric's bound. Two zeros agree exactly.
func relGap(a, b float64) float64 {
	mean := (math.Abs(a) + math.Abs(b)) / 2
	if mean == 0 {
		return 0
	}
	return math.Abs(a-b) / mean
}
