//go:build !race

package pipeline

// raceEnabled is false in ordinary builds; see race_on_test.go.
const raceEnabled = false
