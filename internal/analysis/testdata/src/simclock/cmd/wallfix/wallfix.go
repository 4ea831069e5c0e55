// Package wallfix is a simclock fixture: its virtualized path lies under
// cmd, which is in scope too, so a binary's wall-clock read needs a
// reasoned allow like any other. A binary runs no cell itself, so its
// goroutines and locks are not simclock's business.
package wallfix

import (
	"sync"
	"time"
)

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since reads the host clock"
}

var once sync.Once

func background(f func()) {
	once.Do(func() { go f() })
}
