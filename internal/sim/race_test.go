//go:build race

package sim

// raceEnabled: the race runtime allocates on its own, so the allocation
// bounds, exact without it, skip.
const raceEnabled = true
