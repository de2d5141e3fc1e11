//go:build race

package enclave_test

// raceEnabled reports that this binary runs under the race detector, whose
// instrumentation allocates on paths that are allocation-free in normal
// builds; the allocation-budget test skips itself when it is set.
const raceEnabled = true
