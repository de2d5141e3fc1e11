//go:build !race

package av

// raceEnabled is false in normal builds; see race_test.go.
const raceEnabled = false
