//go:build race

package scenario

// raceEnabled reports a -race build. The race detector instruments
// allocations, so the allocation gates skip under it.
const raceEnabled = true
