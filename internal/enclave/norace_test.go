//go:build !race

package enclave_test

// raceEnabled is false in normal builds; see race_test.go.
const raceEnabled = false
