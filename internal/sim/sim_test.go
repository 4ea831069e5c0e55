package sim

import "testing"

func TestClockAdvance(t *testing.T) {
	c := NewClock(0)
	if c.Now() != 0 {
		t.Fatalf("new clock at %v", c.Now())
	}
	c.Advance(5 * Microsecond)
	if c.Now() != 5*Microsecond {
		t.Fatalf("clock at %v, want 5µs", c.Now())
	}
	c.AdvanceTo(3 * Microsecond) // earlier: no-op
	if c.Now() != 5*Microsecond {
		t.Fatalf("clock moved backwards to %v", c.Now())
	}
	c.AdvanceTo(9 * Microsecond)
	if c.Now() != 9*Microsecond {
		t.Fatalf("clock at %v, want 9µs", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	NewClock(0).Advance(-1)
}

func TestLinearCost(t *testing.T) {
	m := LinearCost{Latency: 10 * Microsecond, BytesPerSec: 1 << 20} // 1 MiB/s
	if got := m.Cost(0); got != 10*Microsecond {
		t.Fatalf("Cost(0) = %v", got)
	}
	// 1 MiB at 1 MiB/s = 1 s (+latency).
	if got := m.Cost(1 << 20); got != Second+10*Microsecond {
		t.Fatalf("Cost(1MiB) = %v", got)
	}
	// Zero bandwidth: latency only.
	if got := (LinearCost{Latency: 3}).Cost(1 << 30); got != 3 {
		t.Fatalf("zero-bandwidth Cost = %v", got)
	}
}

func TestFreeCost(t *testing.T) {
	if got := (Free{}).Cost(1 << 40); got != 0 {
		t.Fatalf("Free cost = %v", got)
	}
}

func TestResourceFCFS(t *testing.T) {
	r := NewResource("disk")
	s, e := r.Acquire(0, 10)
	if s != 0 || e != 10 {
		t.Fatalf("first acquire = (%v,%v)", s, e)
	}
	// Arrives while busy: queued.
	s, e = r.Acquire(5, 10)
	if s != 10 || e != 20 {
		t.Fatalf("queued acquire = (%v,%v), want (10,20)", s, e)
	}
	// Arrives after idle: starts at arrival.
	s, e = r.Acquire(100, 10)
	if s != 100 || e != 110 {
		t.Fatalf("idle acquire = (%v,%v), want (100,110)", s, e)
	}
	ops, busy := r.Stats()
	if ops != 3 || busy != 30 {
		t.Fatalf("stats = (%d,%v), want (3,30)", ops, busy)
	}
}

func TestResourceSequentialTotalServiceConserved(t *testing.T) {
	// N acquires all arriving at virtual time 0 with service 7 must drain
	// at exactly N*7, each completing at a distinct time.
	const n, svc = 64, 7
	r := NewResource("srv")
	var last VTime
	seen := make(map[VTime]bool)
	for i := 0; i < n; i++ {
		_, e := r.Acquire(0, svc)
		if seen[e] {
			t.Fatalf("duplicate completion time %v", e)
		}
		seen[e] = true
		last = max(last, e)
	}
	if last != n*svc {
		t.Fatalf("drain time = %v, want %v", last, VTime(n*svc))
	}
	if r.FreeAt() != n*svc {
		t.Fatalf("FreeAt = %v", r.FreeAt())
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 10)
	r.Reset()
	if r.FreeAt() != 0 {
		t.Fatal("reset did not clear freeAt")
	}
	ops, busy := r.Stats()
	if ops != 0 || busy != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestPool(t *testing.T) {
	p := NewPool("io", 4)
	if p.Size() != 4 {
		t.Fatalf("size = %d", p.Size())
	}
	p.Member(0).Acquire(0, 100)
	p.Member(3).Acquire(0, 250)
	if got := p.MaxFreeAt(); got != 250 {
		t.Fatalf("MaxFreeAt = %v", got)
	}
	p.Reset()
	if got := p.MaxFreeAt(); got != 0 {
		t.Fatalf("MaxFreeAt after reset = %v", got)
	}
	if name := p.Member(2).Name(); name != "io[2]" {
		t.Fatalf("member name = %q", name)
	}
}

func TestPoolZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool("x", 0)
}

func TestVTimeHelpers(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds broken")
	}
	if Second.String() != "1s" {
		t.Fatalf("String = %q", Second.String())
	}
}

// TestSoloParkPanics pins the contract of the no-engine coordinator: the
// calls that only order actors do nothing, and the one call that would have
// to sleep fails loudly, naming the actor and the reason.
func TestSoloParkPanics(t *testing.T) {
	var c Coord = Solo{}
	c.Await(3, 10)
	c.Wake(3, 20)
	c.Done(3)
	defer func() {
		want := "sim: actor 3 blocking with no engine: no peer can ever wake this actor"
		if p := recover(); p != want {
			t.Fatalf("Park panicked with %v, want %q", p, want)
		}
	}()
	c.Park(3)
	t.Fatal("Park returned")
}
