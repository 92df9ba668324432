package facility

import (
	"math/rand"
	"testing"
)

// TestLocalSearchAllocatesOnlyResult: on a warm Instance the move-pricing
// state is reused, so a solve allocates just the facility set it returns.
// Skipped under -race, where allocation accounting is unreliable.
func TestLocalSearchAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	in := randomInstance(rand.New(rand.NewSource(3)), 60)
	if got := LocalSearch(in); len(got) < 2 { // warm the scratch
		t.Fatalf("instance opens %v; want a multi-facility search", got)
	}
	allocs := testing.AllocsPerRun(20, func() { LocalSearch(in) })
	if allocs != 1 {
		t.Errorf("LocalSearch allocates %.1f objects per warm solve, want 1 (its result)", allocs)
	}
}
