package lock

import (
	"strings"
	"testing"

	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// TestDESTeardownUnwindsLockWaiter is the regression test for the
// crash-path the fault layer leans on: an actor parked inside the lock
// table's wait queues at event-loop teardown must be force-unwound with
// sim.StoppedError and reported as a stall, leaving the table usable (the
// wedged grant still registered).
//
// The wedge is produced by the fault layer itself: a dropped unlock with
// no lease leaves the range locked forever, so the second rank parks in
// the wedged grant's queue and nobody ever wakes it.
func TestDESTeardownUnwindsLockWaiter(t *testing.T) {
	flavours := []struct {
		name string
		mk   func() Manager
	}{
		{"central", func() Manager { return newCentralForTest() }},
		{"distributed", func() Manager { return newDistributedForTest() }},
	}
	for _, flavour := range flavours {
		t.Run(flavour.name, func(t *testing.T) {
			inner := flavour.mk()
			// No lease: the dropped unlock wedges the range forever.
			mgr := NewFaulty(inner, plan{drops: map[[2]int]bool{{0, 0}: true}}, 0)
			eng := des.New()
			coord := eng.NewCoord(2)
			mgr.SetCoord(coord)

			e := ext(0, 128)
			var unwound bool
			err := eng.Run(coord, 2, func(owner int) {
				defer coord.Done(owner)
				if owner == 0 {
					grant := mgr.Lock(0, e, Exclusive, 0)
					mgr.Unlock(0, e, grant+sim.Microsecond) // lost in transit
					return
				}
				defer func() {
					p := recover()
					if p == nil {
						return
					}
					se, ok := p.(sim.StoppedError)
					if !ok || se.Actor != 1 {
						t.Errorf("actor 1 unwound with %v, want sim.StoppedError{Actor: 1}", p)
					}
					unwound = true
				}()
				mgr.Lock(1, e, Exclusive, sim.Microsecond) // parks forever
				t.Error("lock on a wedged range was granted")
			})
			if err == nil || !strings.Contains(err.Error(), "stalled: [1]") {
				t.Fatalf("run error = %v, want a stall report naming actor 1", err)
			}
			if !unwound {
				t.Fatal("parked waiter was not unwound with sim.StoppedError")
			}
			// The wedged grant and the abandoned waiter are still
			// registered.
			tbl := tableOf(inner)
			if n := tbl.holders(); n != 1 {
				t.Errorf("holders = %d after teardown, want the wedged grant", n)
			}
			if n := tbl.waiters(); n != 1 {
				t.Errorf("waiters = %d after teardown, want the abandoned waiter entry", n)
			}
		})
	}
}
