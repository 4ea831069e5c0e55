package pfs

import (
	"bytes"
	"reflect"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
)

// faultFS builds a 2-server round-robin file system with a small stripe
// and the given script armed, on the shared-store oracle when shared.
func faultFS(t *testing.T, script fault.Script, shared bool) *FileSystem {
	t.Helper()
	fs := MustNew(Config{Servers: 2, StripeSize: 8, StoreData: true, WAL: true})
	fs.SetFault(fault.New(script))
	if shared {
		withSharedStore(fs)
	}
	return fs
}

// TestServerCrashDropsStripes pins the drop semantics: with server 0 down
// forever, exactly the stripes homed on server 0 read back as zeros and
// appear in the damage set, for both store layouts.
func TestServerCrashDropsStripes(t *testing.T) {
	for _, shared := range []bool{false, true} {
		fs := faultFS(t, fault.ServerOutage(), shared)
		c, _ := fs.Open("f", 0, sim.NewClock(0))
		data := bytes.Repeat([]byte{7}, 32) // 4 stripes: s0 s1 s0 s1
		c.WriteAt(0, data)

		got, err := fs.Snapshot("f", interval.Extent{Off: 0, Len: 32})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 32)
		copy(want[8:16], data[8:16])   // stripe 1 → server 1
		copy(want[24:32], data[24:32]) // stripe 3 → server 1
		if !bytes.Equal(got, want) {
			t.Errorf("shared=%v: file = % x, want % x", shared, got, want)
		}

		damaged, err := fs.Damaged("f")
		if err != nil {
			t.Fatal(err)
		}
		wantDamage := interval.List{{Off: 0, Len: 8}, {Off: 16, Len: 8}}
		if !reflect.DeepEqual(damaged, wantDamage) {
			t.Errorf("shared=%v: damage = %v, want %v", shared, damaged, wantDamage)
		}
	}
}

// TestServerCrashWindowCloses pins the restart: writes after Until land
// normally.
func TestServerCrashWindowCloses(t *testing.T) {
	fs := faultFS(t, fault.Script{Events: []fault.Event{
		{Kind: fault.ServerCrash, Server: 0, From: 0, Until: 100 * sim.Microsecond},
	}}, false)
	clk := sim.NewClock(0)
	c, _ := fs.Open("f", 0, clk)
	c.WriteAt(0, []byte{1, 2, 3, 4}) // dropped: window open at t=0... but client cost advances first
	clk.AdvanceTo(time200())
	c.WriteAt(0, []byte{5, 6, 7, 8}) // window closed
	got, _ := fs.Snapshot("f", interval.Extent{Off: 0, Len: 4})
	if !bytes.Equal(got, []byte{5, 6, 7, 8}) {
		t.Errorf("post-restart write lost: % x", got)
	}
}

func time200() sim.VTime { return 200 * sim.Microsecond }

// TestRecoverReplaysDamagedIntents pins the WAL path: after a crash drops
// rank 1's stripes, Recover replays exactly the ranks whose intents
// intersect the damage, in rank order, and the file heals.
func TestRecoverReplaysDamagedIntents(t *testing.T) {
	fs := faultFS(t, fault.ServerOutage(), false)
	c0, _ := fs.Open("f", 0, sim.NewClock(0))
	c1, _ := fs.Open("f", 1, sim.NewClock(0))

	seg0 := []Segment{{Off: 0, Data: bytes.Repeat([]byte{1}, 16)}}  // stripes 0,1
	seg1 := []Segment{{Off: 16, Data: bytes.Repeat([]byte{2}, 16)}} // stripes 2,3
	if err := fs.LogIntent("f", 0, batchOf(seg0)); err != nil {
		t.Fatal(err)
	}
	if err := fs.LogIntent("f", 1, batchOf(seg1)); err != nil {
		t.Fatal(err)
	}
	c0.WriteV(seg0)
	c1.WriteV(seg1)

	replayed, err := fs.Recover("f")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed = %v, want %v", replayed, want)
	}
	got, _ := fs.Snapshot("f", interval.Extent{Off: 0, Len: 32})
	want := append(bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, 16)...)
	if !bytes.Equal(got, want) {
		t.Errorf("recovered file = % x, want % x", got, want)
	}
}

// TestRecoverSkipsUntouchedRanks pins that ranks whose intents do not
// intersect the damage are not replayed.
func TestRecoverSkipsUntouchedRanks(t *testing.T) {
	fs := faultFS(t, fault.Script{Events: []fault.Event{
		{Kind: fault.ServerCrash, Server: 0}, // stripes 0, 2, ... dropped
	}}, false)
	c0, _ := fs.Open("f", 0, sim.NewClock(0))
	c1, _ := fs.Open("f", 1, sim.NewClock(0))

	seg0 := []Segment{{Off: 0, Data: bytes.Repeat([]byte{1}, 8)}} // stripe 0 → dropped
	seg1 := []Segment{{Off: 8, Data: bytes.Repeat([]byte{2}, 8)}} // stripe 1 → survives
	fs.LogIntent("f", 0, batchOf(seg0))
	fs.LogIntent("f", 1, batchOf(seg1))
	c0.WriteV(seg0)
	c1.WriteV(seg1)

	replayed, err := fs.Recover("f")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0}; !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed = %v, want %v", replayed, want)
	}
}

// TestRecoverNoDamage pins that a healthy file recovers to nothing.
func TestRecoverNoDamage(t *testing.T) {
	fs := faultFS(t, fault.Script{}, false)
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	seg := []Segment{{Off: 0, Data: []byte{1, 2, 3}}}
	fs.LogIntent("f", 0, batchOf(seg))
	c.WriteV(seg)
	replayed, err := fs.Recover("f")
	if err != nil {
		t.Fatal(err)
	}
	if replayed != nil {
		t.Fatalf("replayed = %v on a healthy file", replayed)
	}
}

// TestLogIntentDisabled pins that without Config.WAL the log stays empty
// and Recover finds nothing to replay.
func TestLogIntentDisabled(t *testing.T) {
	fs := MustNew(Config{Servers: 2, StripeSize: 8, StoreData: true})
	fs.SetFault(fault.New(fault.ServerOutage()))
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	seg := []Segment{{Off: 0, Data: bytes.Repeat([]byte{1}, 8)}}
	if err := fs.LogIntent("f", 0, batchOf(seg)); err != nil {
		t.Fatal(err)
	}
	c.WriteV(seg)
	replayed, err := fs.Recover("f")
	if err != nil {
		t.Fatal(err)
	}
	if replayed != nil {
		t.Fatalf("replayed = %v with WAL disabled", replayed)
	}
}

// TestDamageAffinityMode pins whole-segment drops in client-affinity mode:
// the faulted rank's home server drops its entire segment.
func TestDamageAffinityMode(t *testing.T) {
	fs := MustNew(Config{Servers: 2, Mode: ClientAffinity, StoreData: true})
	fs.SetFault(fault.New(fault.ServerOutage())) // server 0 = rank 0's home
	c0, _ := fs.Open("f", 0, sim.NewClock(0))
	c1, _ := fs.Open("f", 1, sim.NewClock(0))
	c0.WriteAt(0, bytes.Repeat([]byte{1}, 4))
	c1.WriteAt(4, bytes.Repeat([]byte{2}, 4))
	got, _ := fs.Snapshot("f", interval.Extent{Off: 0, Len: 8})
	want := []byte{0, 0, 0, 0, 2, 2, 2, 2}
	if !bytes.Equal(got, want) {
		t.Errorf("file = % x, want % x", got, want)
	}
	damaged, _ := fs.Damaged("f")
	if want := (interval.List{{Off: 0, Len: 4}}); !reflect.DeepEqual(damaged, want) {
		t.Errorf("damage = %v, want %v", damaged, want)
	}
}

// TestClientDamage pins the writer-crash hook: extents reported through
// Client.Damage join the damage set without being written.
func TestClientDamage(t *testing.T) {
	fs := MustNew(Config{Servers: 2, StripeSize: 8, StoreData: true, WAL: true})
	c, _ := fs.Open("f", 0, sim.NewClock(0))
	c.Damage(interval.List{{Off: 4, Len: 4}})
	damaged, _ := fs.Damaged("f")
	if want := (interval.List{{Off: 4, Len: 4}}); !reflect.DeepEqual(damaged, want) {
		t.Errorf("damage = %v, want %v", damaged, want)
	}
}
