//go:build race

package wal

// raceEnabled reports that this binary runs under the race detector, whose
// instrumentation allocates on its own; allocation-bound tests skip
// themselves when it is set.
const raceEnabled = true
