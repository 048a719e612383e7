//go:build race

package wire

// raceEnabled lets allocation-counting tests skip themselves: the race
// detector allocates shadow state on the paths they count.
const raceEnabled = true
