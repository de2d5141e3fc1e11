//go:build race

package wire

// raceEnabled reports that this binary runs under the race detector, whose
// instrumentation allocates on paths that are allocation-free in normal
// builds; the allocation-budget and heap-growth tests skip themselves when
// it is set.
const raceEnabled = true
