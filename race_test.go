//go:build race

package zipline

// raceEnabled reports that this binary was built with the race
// detector, under which sync.Pool drops a share of its puts, so pooled
// one-shot paths cannot pin their allocation counts.
const raceEnabled = true
