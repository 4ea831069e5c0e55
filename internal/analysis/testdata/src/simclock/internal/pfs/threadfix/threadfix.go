// Package threadfix is a simclock fixture: its virtualized path lies under
// internal/pfs, inside a cell, so goroutines and the sync packages are
// forbidden here.
package threadfix

import (
	"sync"        // want "import of sync inside a cell"
	"sync/atomic" // want "import of sync/atomic inside a cell"
)

var flushed atomic.Int64

func flush(pieces []int) {
	var wg sync.WaitGroup
	for range pieces {
		wg.Add(1)
		go func() { // want "go statement inside a cell"
			defer wg.Done()
			flushed.Add(1)
		}()
	}
	wg.Wait()
}

func background(done func()) {
	go done() // want "go statement inside a cell"
}

// inline runs the callback on the caller's thread: legal.
func inline(done func()) {
	done()
}
