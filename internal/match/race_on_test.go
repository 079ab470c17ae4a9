//go:build race

package match

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a share of what is put back, so a ceiling on allocations cannot hold.
const raceEnabled = true
