//go:build race

package core

// raceEnabled reports that the race detector is active. Allocation
// accounting tests skip themselves then, because -race makes sync.Pool
// deliberately drop items to expose misuse, and so does the 50k-node
// byte-identity check, which takes minutes under the detector.
const raceEnabled = true
