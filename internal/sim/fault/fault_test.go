package fault

import (
	"reflect"
	"testing"

	"atomio/internal/sim"
)

func TestServerDroppedWindows(t *testing.T) {
	in := New(Script{Events: []Event{
		{Kind: ServerCrash, Server: 0, From: 10, Until: 20},
		{Kind: ServerCrash, Server: 0, From: 50}, // down for good
		{Kind: ServerCrash, Server: 2, From: 0, Until: 5},
	}})
	cases := []struct {
		server int
		at     sim.VTime
		want   bool
	}{
		{0, 9, false}, {0, 10, true}, {0, 19, true}, {0, 20, false},
		{0, 49, false}, {0, 50, true}, {0, 1 << 40, true},
		{1, 0, false}, {1, 1 << 40, false},
		{2, 0, true}, {2, 4, true}, {2, 5, false},
	}
	for _, c := range cases {
		if got := in.ServerDropped(c.server, c.at); got != c.want {
			t.Errorf("ServerDropped(%d, %d) = %v, want %v", c.server, c.at, got, c.want)
		}
	}
	for _, c := range []struct {
		at   sim.VTime
		want bool
	}{{0, true}, {4, true}, {5, false}, {9, false}, {10, true}, {20, false}, {50, true}} {
		if got := in.ServerDownAt(c.at); got != c.want {
			t.Errorf("ServerDownAt(%d) = %v, want %v", c.at, got, c.want)
		}
	}
	if in.HasLockFaults() {
		t.Error("HasLockFaults = true for a crash-only script")
	}
}

func TestLockFaultLookups(t *testing.T) {
	in := New(Script{Lease: 7, Events: []Event{
		{Kind: UnlockDrop, Owner: 1, Op: 0},
		{Kind: UnlockDup, Owner: 2, Op: 1},
		{Kind: LockDelay, Owner: 0, Op: 0, Delay: 100},
		{Kind: LockDelay, Owner: 0, Op: 0, Delay: 50}, // delays accumulate
	}})
	if !in.UnlockDropped(1, 0) || in.UnlockDropped(1, 1) || in.UnlockDropped(0, 0) {
		t.Error("UnlockDropped lookup wrong")
	}
	if !in.UnlockDuplicated(2, 1) || in.UnlockDuplicated(2, 0) {
		t.Error("UnlockDuplicated lookup wrong")
	}
	if got := in.LockDelay(0, 0); got != 150 {
		t.Errorf("LockDelay(0,0) = %d, want 150", got)
	}
	if got := in.LockDelay(0, 1); got != 0 {
		t.Errorf("LockDelay(0,1) = %d, want 0", got)
	}
	if !in.HasLockFaults() {
		t.Error("HasLockFaults = false")
	}
	if in.Lease() != 7 {
		t.Errorf("Lease = %d, want 7", in.Lease())
	}
}

func TestWriterCrashLookup(t *testing.T) {
	in := New(Script{Events: []Event{{Kind: WriterCrash, Owner: 3, Segments: 2}}})
	if segs, ok := in.WriterCrash(3); !ok || segs != 2 {
		t.Errorf("WriterCrash(3) = %d, %v; want 2, true", segs, ok)
	}
	if _, ok := in.WriterCrash(0); ok {
		t.Error("WriterCrash(0) = true for unfaulted rank")
	}
}

// TestGenerateDeterministic pins that the same seed yields the same script
// and different seeds diverge.
func TestGenerateDeterministic(t *testing.T) {
	p := GenParams{Servers: 4, Ranks: 8, LockFaults: true, WriterCrash: true, Horizon: sim.Millisecond}
	a := Generate(42, p)
	b := Generate(42, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n %v\n %v", a, b)
	}
	distinct := false
	for seed := uint64(0); seed < 16; seed++ {
		if !reflect.DeepEqual(Generate(seed, p), a) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("16 seeds all produced the same script")
	}
}

// TestGenerateRespectsParams pins the class gating: without LockFaults and
// WriterCrash only server crashes may appear, and all indices stay in
// range.
func TestGenerateRespectsParams(t *testing.T) {
	p := GenParams{Servers: 3, Ranks: 4, Horizon: sim.Millisecond}
	for seed := uint64(0); seed < 64; seed++ {
		s := Generate(seed, p)
		if len(s.Events) == 0 {
			t.Fatalf("seed %d: empty script", seed)
		}
		if s.Lease <= 0 {
			t.Fatalf("seed %d: generated script must carry a lease", seed)
		}
		for _, e := range s.Events {
			if e.Kind != ServerCrash {
				t.Fatalf("seed %d: kind %v generated without permission", seed, e.Kind)
			}
			if e.Server < 0 || e.Server >= p.Servers {
				t.Fatalf("seed %d: server %d out of range", seed, e.Server)
			}
			if e.Until != 0 && e.Until <= e.From {
				t.Fatalf("seed %d: empty window %v", seed, e)
			}
		}
	}
	p.LockFaults = true
	p.WriterCrash = true
	seen := map[Kind]bool{}
	for seed := uint64(0); seed < 256; seed++ {
		for _, e := range Generate(seed, p).Events {
			seen[e.Kind] = true
			if e.Owner < 0 || e.Owner >= p.Ranks {
				t.Fatalf("seed %d: owner %d out of range", seed, e.Owner)
			}
		}
	}
	for _, k := range []Kind{ServerCrash, UnlockDrop, UnlockDup, LockDelay, WriterCrash} {
		if !seen[k] {
			t.Errorf("256 seeds never generated %v", k)
		}
	}
}

// Builtins returns the named scripts in registration order.
func Builtins() []Script {
	return []Script{
		ServerOutage(), ServerBlip(), UnlockDropLease(),
		UnlockDupScript(), LockReorder(), WriterCrashEarly(),
	}
}

// TestBuiltinsNamed pins that every built-in script carries a unique name
// and a positive lease (fleet scripts must never stall).
func TestBuiltinsNamed(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Builtins() {
		if s.Name == "" {
			t.Fatalf("unnamed builtin %v", s)
		}
		if names[s.Name] {
			t.Fatalf("duplicate builtin name %q", s.Name)
		}
		names[s.Name] = true
		if s.Lease <= 0 {
			t.Errorf("builtin %q has no lease", s.Name)
		}
		if len(s.Events) == 0 {
			t.Errorf("builtin %q has no events", s.Name)
		}
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: ServerCrash, Server: 0}, "server-crash(s0@0-)"},
		{Event{Kind: ServerCrash, Server: 1, From: 5, Until: 9}, "server-crash(s1@5-9)"},
		{Event{Kind: UnlockDrop, Owner: 1, Op: 0}, "unlock-drop(r1#0)"},
		{Event{Kind: UnlockDup, Owner: 2, Op: 1}, "unlock-dup(r2#1)"},
		{Event{Kind: LockDelay, Owner: 0, Op: 0, Delay: 3}, "lock-delay(r0#0+3)"},
		{Event{Kind: WriterCrash, Owner: 1, Segments: 2}, "writer-crash(r1@seg2)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}
