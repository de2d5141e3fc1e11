//go:build !race

package wal

// raceEnabled is false in normal builds; see race_test.go.
const raceEnabled = false
