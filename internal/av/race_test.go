//go:build race

package av

// raceEnabled reports that this binary runs under the race detector, whose
// 5-20x slowdown makes timing-shape assertions meaningless; timing-based
// tests skip themselves when it is set.
const raceEnabled = true
