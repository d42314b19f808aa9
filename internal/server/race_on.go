//go:build race

package server

// raceEnabled reports that the race detector is instrumenting this
// build. The coalescing throughput gate reads it to skip a wall-clock
// bound that the instrumentation slowdown would turn into noise.
const raceEnabled = true
