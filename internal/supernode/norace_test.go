//go:build !race

package supernode

const raceEnabled = false
