//go:build !race

package splitmerge

const raceEnabled = false
