//go:build !race

package dos

const raceEnabled = false
