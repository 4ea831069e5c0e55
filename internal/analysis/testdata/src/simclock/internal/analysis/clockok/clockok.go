// Package clockok is a simclock fixture: its virtualized path lies under
// internal/analysis, the one subtree outside the pass's scope, so
// wall-clock reads are not simclock's business here.
package clockok

import "time"

func wall() time.Time {
	return time.Now()
}
