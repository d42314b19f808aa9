//go:build !race

package server

// raceEnabled reports that the race detector is instrumenting this
// build; see race_on.go.
const raceEnabled = false
