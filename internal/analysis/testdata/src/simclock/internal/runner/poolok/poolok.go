// Package poolok is a simclock fixture: its virtualized path lies under
// internal/runner, whose worker pool runs whole cells in parallel, so
// goroutines and the sync packages are legal here.
package poolok

import "sync"

func each(cells []func()) {
	var wg sync.WaitGroup
	for _, cell := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cell()
		}()
	}
	wg.Wait()
}
