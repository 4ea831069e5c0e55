package lock

import (
	"fmt"
	"reflect"
	"testing"

	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// plan is a scripted FaultPlan for direct tests.
type plan struct {
	delays map[[2]int]sim.VTime
	drops  map[[2]int]bool
	dups   map[[2]int]bool
}

func (p plan) LockDelay(owner, op int) sim.VTime   { return p.delays[[2]int{owner, op}] }
func (p plan) UnlockDropped(owner, op int) bool    { return p.drops[[2]int{owner, op}] }
func (p plan) UnlockDuplicated(owner, op int) bool { return p.dups[[2]int{owner, op}] }

// TestFaultyDroppedUnlockLeaseRevokes pins the lease path: owner 0's
// unlock is lost, so owner 1 waits until the lease expires rather than
// forever, and serializes after grant+lease.
func TestFaultyDroppedUnlockLeaseRevokes(t *testing.T) {
	const lease = 500 * sim.Microsecond
	for _, flavour := range []struct {
		name string
		mk   func() Manager
	}{
		{"central", func() Manager { return newCentralForTest() }},
		{"distributed", func() Manager { return newDistributedForTest() }},
	} {
		t.Run(flavour.name, func(t *testing.T) {
			f := NewFaulty(flavour.mk(), plan{drops: map[[2]int]bool{{0, 0}: true}}, lease)
			e := ext(0, 128)
			grant0 := f.Lock(0, e, Exclusive, 0)
			rel0 := f.Unlock(0, e, grant0+sim.Microsecond) // lost; lease armed
			if rel0 != grant0+sim.Microsecond {
				t.Errorf("dropped unlock returned %v, want the caller's own time %v", rel0, grant0+sim.Microsecond)
			}
			// Owner 1 must be granted, and not before the lease expiry.
			grant1 := f.Lock(1, e, Exclusive, rel0)
			if grant1 < grant0+lease {
				t.Errorf("grant1 = %v, before lease expiry %v", grant1, grant0+lease)
			}
			if rel := f.Unlock(1, e, grant1); rel < grant1 {
				t.Errorf("unlock went backwards: %v < %v", rel, grant1)
			}
		})
	}
}

// TestFaultyDroppedUnlockNoLeaseWedges pins the no-lease drop: the grant
// stays in the table forever.
func TestFaultyDroppedUnlockNoLeaseWedges(t *testing.T) {
	inner := newCentralForTest()
	f := NewFaulty(inner, plan{drops: map[[2]int]bool{{0, 0}: true}}, 0)
	e := ext(0, 64)
	grant := f.Lock(0, e, Exclusive, 0)
	f.Unlock(0, e, grant+sim.Microsecond)
	if n := tableOf(inner).holders(); n != 1 {
		t.Fatalf("holders = %d after a dropped unlock with no lease, want 1", n)
	}
}

// TestFaultyDuplicateUnlockIdempotent pins that a duplicated unlock
// releases once and the second delivery is a no-op — subsequent locking
// still works and holder counts stay sane.
func TestFaultyDuplicateUnlockIdempotent(t *testing.T) {
	inner := newCentralForTest()
	f := NewFaulty(inner, plan{dups: map[[2]int]bool{{0, 0}: true}}, 0)
	e := ext(0, 64)
	grant := f.Lock(0, e, Exclusive, 0)
	rel := f.Unlock(0, e, grant+sim.Microsecond)
	if n := tableOf(inner).holders(); n != 0 {
		t.Fatalf("holders = %d after duplicated unlock, want 0", n)
	}
	// The range must still be lockable with a sane grant time.
	if g := f.Lock(1, e, Exclusive, rel); g < rel {
		t.Errorf("grant after duplicate = %v, want >= %v", g, rel)
	}
}

// TestFaultyLockDelayReorders pins the reorder fault: owner 0's delayed
// request loses to owner 1's later-issued one.
func TestFaultyLockDelayReorders(t *testing.T) {
	const delay = 10 * sim.Millisecond
	f := NewFaulty(newCentralForTest(), plan{delays: map[[2]int]sim.VTime{{0, 0}: delay}}, 0)
	e := ext(0, 64)
	// Owner 1 issues later (t=1ms) but undelayed; owner 0 issued at t=0
	// with a 10ms delay. Owner 1 must be served first.
	grant1 := f.Lock(1, e, Exclusive, sim.Millisecond)
	f.Unlock(1, e, grant1)
	grant0 := f.Lock(0, e, Exclusive, 0)
	if grant0 < delay {
		t.Errorf("delayed grant %v arrived before its delay %v", grant0, delay)
	}
	if grant1 >= grant0 {
		t.Errorf("reorder failed: delayed owner 0 granted at %v, undelayed owner 1 at %v", grant0, grant1)
	}
	f.Unlock(0, e, grant0)
}

// TestRevokeAtIdempotent pins the Revoker contract directly: revoking a
// never-held or already-released range must not panic or corrupt state.
func TestRevokeAtIdempotent(t *testing.T) {
	for _, flavour := range []struct {
		name string
		mk   func() interface {
			Manager
			Revoker
		}
	}{
		{"central", func() interface {
			Manager
			Revoker
		} {
			return newCentralForTest()
		}},
		{"distributed", func() interface {
			Manager
			Revoker
		} {
			return newDistributedForTest()
		}},
	} {
		t.Run(flavour.name, func(t *testing.T) {
			m := flavour.mk()
			e := ext(0, 64)
			m.RevokeAt(0, e, 0, 0) // never held
			grant := m.Lock(0, e, Exclusive, 0)
			rel := m.Unlock(0, e, grant)
			m.RevokeAt(0, e, rel, rel) // already released
			if g := m.Lock(1, e, Exclusive, rel); g < rel {
				t.Errorf("grant = %v, want >= %v", g, rel)
			}
		})
	}
}

// TestFaultyName pins the wrapper's name and unwrap.
func TestFaultyName(t *testing.T) {
	f := NewFaulty(newCentralForTest(), plan{}, 0)
	if f.Name() != "central+faults" {
		t.Errorf("Name = %q", f.Name())
	}
	if f.Unwrap().Name() != "central" {
		t.Errorf("Unwrap().Name = %q", f.Unwrap().Name())
	}
}

// TestFaultyByteIdenticalAcrossEngines extends the cross-engine pinning to
// faulted workloads: a contended multi-actor workload with a dropped
// unlock (lease-revoked), a duplicated unlock and a delayed lock must
// produce identical grant and release times under both engines.
func TestFaultyByteIdenticalAcrossEngines(t *testing.T) {
	p := plan{
		delays: map[[2]int]sim.VTime{{2, 0}: 2 * sim.Millisecond},
		drops:  map[[2]int]bool{{0, 0}: true},
		dups:   map[[2]int]bool{{1, 1}: true},
	}
	const lease = 5 * sim.Millisecond
	for _, flavour := range []struct {
		name string
		mk   func() coordManager
	}{
		{"central", func() coordManager { return NewFaulty(newCentralForTest(), p, lease) }},
		{"central-sharded", func() coordManager {
			return NewFaulty(NewCentral(CentralConfig{MsgCost: msg, ServiceTime: svc, Shards: 4, ShardStripe: 128}), p, lease)
		}},
		{"distributed", func() coordManager { return NewFaulty(newDistributedForTest(), p, lease) }},
	} {
		for seed := int64(0); seed < 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", flavour.name, seed), func(t *testing.T) {
				oracle := runLockWorkload(t, flavour.mk, sim.Goroutines{}, seed, 8)
				loop := runLockWorkload(t, flavour.mk, des.New(), seed, 8)
				if !reflect.DeepEqual(loop, oracle) {
					t.Errorf("faulted traces diverge\n eventloop %+v\n goroutine %+v", loop, oracle)
				}
			})
		}
	}
}

var _ FaultPlan = plan{}
