// Package wallfix is a simclock fixture: its virtualized path lies under
// cmd, which is in scope too, so a binary's wall-clock read needs a
// reasoned allow like any other.
package wallfix

import "time"

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since reads the host clock"
}
