package lock

import (
	"strings"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

func ext(off, l int64) interval.Extent { return interval.Extent{Off: off, Len: l} }

const (
	msg = 10 * sim.Microsecond
	svc = 5 * sim.Microsecond
)

func newCentralForTest() *Central {
	return NewCentral(CentralConfig{MsgCost: msg, ServiceTime: svc})
}

func newDistributedForTest() *Distributed {
	return NewDistributed(DistributedConfig{
		LocalCost:   sim.Microsecond,
		MsgCost:     msg,
		ServiceTime: svc,
		RevokeCost:  50 * sim.Microsecond,
	})
}

// managers returns every manager flavour under test.
func managers() map[string]Manager {
	return map[string]Manager{
		"central":     newCentralForTest(),
		"distributed": newDistributedForTest(),
	}
}

func TestLockUnlockSingleOwner(t *testing.T) {
	for name, m := range managers() {
		g := m.Lock(0, ext(0, 100), Exclusive, 0)
		if g < msg {
			t.Errorf("%s: grant %v before request could arrive", name, g)
		}
		after := m.Unlock(0, ext(0, 100), g+100)
		if after < g+100 {
			t.Errorf("%s: unlock returned %v, before the call time", name, after)
		}
	}
}

// TestSoloManagerServesOneCaller pins the no-engine default: a manager that
// was never handed a coordinator grants and releases on the caller's own
// goroutine, and a Lock that would have to wait fails at once — no peer
// exists that could ever release — instead of hanging.
func TestSoloManagerServesOneCaller(t *testing.T) {
	for name, m := range managers() {
		g := m.Lock(0, ext(0, 100), Exclusive, 0)
		func() {
			defer func() {
				if p, _ := recover().(string); !strings.Contains(p, "blocking with no engine") {
					t.Errorf("%s: contended Lock with no engine: recovered %q, want the Solo panic", name, p)
				}
			}()
			m.Lock(1, ext(50, 100), Exclusive, 0)
			t.Errorf("%s: contended Lock with no engine returned", name)
		}()
		m.Unlock(0, ext(0, 100), g)
	}
}

func TestNonOverlappingLocksDontWait(t *testing.T) {
	for name, m := range managers() {
		grants := make([]sim.VTime, 8)
		onEngine(t, 8, m.SetCoord, func(i int, _ sim.Coord) {
			grants[i] = m.Lock(i, ext(int64(i*100), 100), Exclusive, 0)
			m.Unlock(i, ext(int64(i*100), 100), grants[i])
		})
		// Nobody waits on a conflict; grants are bounded by message cost
		// plus the service queue (central) or even less (distributed).
		for i, g := range grants {
			if g > 2*msg+8*svc+8*50*sim.Microsecond {
				t.Errorf("%s: owner %d granted at %v, too late for no-conflict", name, i, g)
			}
		}
	}
}

// contend runs the two-owner conflict every blocking test below is a case
// of: owner 0 takes e0 in mode0 at virtual time 0 and releases it at
// releaseAt; owner 1 asks for e1 in mode1 one nanosecond after owner 0 did —
// so the engine admits it second, while e0 is held — and releases at once.
// It returns both grant times.
func contend(t *testing.T, m Manager, e0 interval.Extent, mode0 Mode, releaseAt sim.VTime, e1 interval.Extent, mode1 Mode) (g0, g1 sim.VTime) {
	t.Helper()
	onEngine(t, 2, m.SetCoord, func(owner int, _ sim.Coord) {
		if owner == 0 {
			g0 = m.Lock(0, e0, mode0, 0)
			m.Unlock(0, e0, releaseAt)
			return
		}
		g1 = m.Lock(1, e1, mode1, 1)
		m.Unlock(1, e1, g1)
	})
	return g0, g1
}

func TestOverlappingExclusiveSerializes(t *testing.T) {
	for name, m := range managers() {
		// Owner 1's overlapping request must wait for owner 0's release
		// and inherit its virtual time.
		const release = sim.Millisecond
		_, g1 := contend(t, m, ext(0, 100), Exclusive, release, ext(50, 100), Exclusive)
		if g1 < release {
			t.Errorf("%s: second grant %v precedes release %v", name, g1, release)
		}
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	for name, m := range managers() {
		const release = 10 * sim.Second
		_, g1 := contend(t, m, ext(0, 100), Shared, release, ext(0, 100), Shared)
		if g1 > sim.Second {
			t.Errorf("%s: shared lock delayed to %v behind a shared holder", name, g1)
		}
	}
}

func TestSharedBlocksExclusive(t *testing.T) {
	const release = sim.Millisecond
	_, g1 := contend(t, newCentralForTest(), ext(0, 100), Shared, release, ext(0, 100), Exclusive)
	if g1 < release {
		t.Errorf("exclusive granted at %v alongside a shared lock held until %v", g1, release)
	}
}

func TestUnlockNotHeldPanics(t *testing.T) {
	for name, m := range managers() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			m.Unlock(3, ext(0, 10), 0)
		}()
	}
}

func TestCentralServiceQueueSerializesRequests(t *testing.T) {
	// N simultaneous non-conflicting requests still queue at the central
	// manager: the latest grant is at least N*ServiceTime after arrival.
	const n = 16
	m := newCentralForTest()
	grants := make([]sim.VTime, n)
	onEngine(t, n, m.SetCoord, func(i int, _ sim.Coord) {
		grants[i] = m.Lock(i, ext(int64(i*10), 10), Exclusive, 0)
	})
	var latest sim.VTime
	for _, g := range grants {
		if g > latest {
			latest = g
		}
	}
	if want := msg + n*svc + msg; latest < want {
		t.Fatalf("latest grant %v, want >= %v (central queueing)", latest, want)
	}
}

func TestDistributedFastPathAfterFirstAcquisition(t *testing.T) {
	d := newDistributedForTest()
	g1 := d.Lock(0, ext(0, 1000), Exclusive, 0)
	d.Unlock(0, ext(0, 1000), g1)
	// Re-acquiring inside the cached token is nearly free.
	at := g1 + sim.Millisecond
	g2 := d.Lock(0, ext(100, 50), Exclusive, at)
	if g2 > at+10*sim.Microsecond {
		t.Fatalf("fast-path grant at %v, want ~%v", g2, at)
	}
	d.Unlock(0, ext(100, 50), g2)
	local, server, _ := d.Stats()
	if local != 1 || server != 1 {
		t.Fatalf("stats local=%d server=%d, want 1/1", local, server)
	}
}

func TestDistributedRevocationOnConflict(t *testing.T) {
	d := newDistributedForTest()
	g0 := d.Lock(0, ext(0, 1000), Exclusive, 0)
	d.Unlock(0, ext(0, 1000), g0)

	// Owner 1 wants an overlapping range: owner 0's token must be revoked.
	g1 := d.Lock(1, ext(500, 1000), Exclusive, g0)
	_, _, rev := d.Stats()
	if rev != 1 {
		t.Fatalf("revocations = %d, want 1", rev)
	}
	if g1 < g0+msg+svc {
		t.Fatalf("revoking grant at %v, too early", g1)
	}
	d.Unlock(1, ext(500, 1000), g1)

	// Owner 0's token for the overlapped part is gone: next lock there is
	// a server grant again.
	_, serverBefore, _ := d.Stats()
	g2 := d.Lock(0, ext(600, 10), Exclusive, g1)
	_, serverAfter, _ := d.Stats()
	if serverAfter != serverBefore+1 {
		t.Fatal("expected server grant after token revocation")
	}
	d.Unlock(0, ext(600, 10), g2)
}

func TestDistributedKeepsDisjointTokens(t *testing.T) {
	d := newDistributedForTest()
	// Owner 0 holds [0,100); owner 1 takes [200,300): no revocation.
	g0 := d.Lock(0, ext(0, 100), Exclusive, 0)
	d.Unlock(0, ext(0, 100), g0)
	g1 := d.Lock(1, ext(200, 100), Exclusive, 0)
	d.Unlock(1, ext(200, 100), g1)
	_, _, rev := d.Stats()
	if rev != 0 {
		t.Fatalf("revocations = %d, want 0", rev)
	}
	// Both fast-path on re-acquisition.
	d.Unlock(0, ext(0, 100), d.Lock(0, ext(0, 100), Exclusive, g0+sim.Second))
	d.Unlock(1, ext(200, 100), d.Lock(1, ext(200, 100), Exclusive, g1+sim.Second))
	local, _, _ := d.Stats()
	if local != 2 {
		t.Fatalf("local grants = %d, want 2", local)
	}
}

func TestGrantCarriesConflictReleaseTime(t *testing.T) {
	// The virtual grant time of a waiter must be at least the *virtual*
	// release time of the conflicting holder, however far ahead that is.
	const farFuture = 42 * sim.Second
	_, g1 := contend(t, newCentralForTest(), ext(0, 10), Exclusive, farFuture, ext(5, 10), Exclusive)
	if g1 < farFuture {
		t.Fatalf("grant %v does not carry release time %v", g1, farFuture)
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "shared" || Exclusive.String() != "exclusive" {
		t.Fatal("mode strings")
	}
}

func TestManagerNames(t *testing.T) {
	if newCentralForTest().Name() != "central" || newDistributedForTest().Name() != "distributed" {
		t.Fatal("names")
	}
}

func TestHoldersCount(t *testing.T) {
	c := newCentralForTest()
	g := c.Lock(0, ext(0, 10), Exclusive, 0)
	if tableOf(c).holders() != 1 {
		t.Fatal("holders != 1")
	}
	c.Unlock(0, ext(0, 10), g)
	if tableOf(c).holders() != 0 {
		t.Fatal("holders != 0 after unlock")
	}
}
