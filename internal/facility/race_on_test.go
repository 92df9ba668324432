//go:build race

package facility

// raceEnabled reports that the race detector is active: the identity
// sweeps shrink and the allocation test skips itself, because -race slows
// the reference solves and makes sync.Pool drop items on purpose.
const raceEnabled = true
