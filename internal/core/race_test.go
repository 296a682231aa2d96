//go:build race

package core

// raceEnabled: the race runtime allocates on its own, so the allocation
// bounds, exact without it, skip.
const raceEnabled = true
