//go:build race

package dos

// raceEnabled: the race runtime allocates on its own, so the allocation
// gates, exact without it, skip.
const raceEnabled = true
