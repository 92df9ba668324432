//go:build !race

package facility

const raceEnabled = false
