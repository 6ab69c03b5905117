//go:build race

package galaxy

// raceEnabled reports a -race build, whose sync.Pool drops items at random.
const raceEnabled = true
