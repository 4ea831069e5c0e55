package pfs

import (
	"reflect"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
)

// faultFS builds a 2-server round-robin file system with a small stripe
// and the given script armed, on the owner oracle when oracle.
func faultFS(t *testing.T, script fault.Script, oracle bool) *FileSystem {
	t.Helper()
	fs := MustNew(Config{Servers: 2, StripeSize: 8, StoreData: true, WAL: true})
	fs.SetFault(fault.New(script))
	if oracle {
		withOwnerOracle(fs)
	}
	return fs
}

// TestServerCrashDropsStripes pins the drop semantics: with server 0 down
// forever, exactly the stripes homed on server 0 are owned by nobody and
// appear in the damage set, on the write log and on the owner oracle.
func TestServerCrashDropsStripes(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		fs := faultFS(t, fault.ServerOutage(), oracle)
		c, _ := fs.Open("f", 0, sim.NewClock(0))
		writeAt(c, 0, 32) // 4 stripes: s0 s1 s0 s1
		// Stripes 1 and 3 → server 1.
		if got, want := image(t, fs, "f", 0, 32), "........00000000........00000000"; got != want {
			t.Errorf("oracle=%v: owners = %q, want %q", oracle, got, want)
		}

		damaged, err := fs.Damaged("f")
		if err != nil {
			t.Fatal(err)
		}
		wantDamage := interval.List{{Off: 0, Len: 8}, {Off: 16, Len: 8}}
		if !reflect.DeepEqual(damaged, wantDamage) {
			t.Errorf("oracle=%v: damage = %v, want %v", oracle, damaged, wantDamage)
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
	writeAt(c, 0, 4) // dropped: the window is open
	if got := image(t, fs, "f", 0, 4); got != "...." {
		t.Errorf("write inside the window stored: %q", got)
	}
	clk.AdvanceTo(time200())
	writeAs(c, 0, 4, 5) // window closed
	if got := image(t, fs, "f", 0, 4); got != "5555" {
		t.Errorf("post-restart write lost: %q", got)
	}
}

func time200() sim.VTime { return 200 * sim.Microsecond }

// TestUpServersTakeTheCallUncopied pins the fault filter at instants when
// no server is down: under a script that crashes server 0 from 1 s on, a
// call made before is stored as the caller lent it — its record's extents
// are the batch's array — and dropFaulted allocates nothing, a flush's log
// included. A call made once the window is open is still cut at the
// servers, rank 1's as well as rank 0's: its server-0 stripes are damage.
func TestUpServersTakeTheCallUncopied(t *testing.T) {
	fs := faultFS(t, fault.Script{Events: []fault.Event{
		{Kind: fault.ServerCrash, Server: 0, From: sim.Second},
	}}, false)
	clk := sim.NewClock(0)
	c, _ := fs.Open("f", 1, clk)
	b := Batch{Ext: interval.List{{Off: 0, Len: 32}}} // 4 stripes: s0 s1 s0 s1
	c.Write(b)
	var recs []index.Record
	visit := func(r index.Record) { recs = append(recs, r) }
	if err := fs.EachRecord("f", visit); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || &recs[0].Ext[0] != &b.Ext[0] {
		t.Fatalf("records %+v: want the lent batch %v itself", recs, b.Ext)
	}
	log := []Batch{b, b}
	if n := testing.AllocsPerRun(10, func() { c.dropFaulted(b, log) }); n != 0 {
		t.Errorf("dropFaulted allocates %v objects while every server is up", n)
	}
	if damaged, _ := fs.Damaged("f"); len(damaged) != 0 {
		t.Errorf("damage %v while every server is up", damaged)
	}

	clk.AdvanceTo(sim.Second)
	late := Batch{Ext: interval.List{{Off: 0, Len: 32}}}
	c.Write(late)
	recs = recs[:0]
	if err := fs.EachRecord("f", visit); err != nil {
		t.Fatal(err)
	}
	if want := (interval.List{{Off: 8, Len: 8}, {Off: 24, Len: 8}}); len(recs) != 2 || !reflect.DeepEqual(recs[1].Ext, want) {
		t.Errorf("records %+v: want the late call's server-1 stripes %v", recs, want)
	}
	if damaged, _ := fs.Damaged("f"); !reflect.DeepEqual(damaged, interval.List{{Off: 0, Len: 8}, {Off: 16, Len: 8}}) {
		t.Errorf("damage %v: want the late call's server-0 stripes", damaged)
	}
}

// TestRecoverReplaysDamagedIntents pins the WAL path: after a crash drops
// server 0's stripes of both ranks' writes, Recover replays exactly the
// ranks whose intents intersect the damage, in rank order, and the file
// heals, each replayed byte owned by the rank that logged it.
func TestRecoverReplaysDamagedIntents(t *testing.T) {
	fs := faultFS(t, fault.ServerOutage(), false)
	c0, _ := fs.Open("f", 0, sim.NewClock(0))
	c1, _ := fs.Open("f", 1, sim.NewClock(0))

	b0 := Batch{Ext: interval.List{{Off: 0, Len: 16}}}  // stripes 0,1
	b1 := Batch{Ext: interval.List{{Off: 16, Len: 16}}} // stripes 2,3
	if err := fs.LogIntent("f", 0, b0); err != nil {
		t.Fatal(err)
	}
	if err := fs.LogIntent("f", 1, b1); err != nil {
		t.Fatal(err)
	}
	c0.Write(b0)
	c1.Write(b1)
	if got, want := image(t, fs, "f", 0, 32), "........00000000........11111111"; got != want {
		t.Fatalf("owners before recovery = %q, want %q", got, want)
	}

	replayed, err := fs.Recover("f")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed = %v, want %v", replayed, want)
	}
	if got, want := image(t, fs, "f", 0, 32), "00000000000000001111111111111111"; got != want {
		t.Errorf("recovered owners = %q, want %q", got, want)
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

	b0 := Batch{Ext: interval.List{{Off: 0, Len: 8}}} // stripe 0 → dropped
	b1 := Batch{Ext: interval.List{{Off: 8, Len: 8}}} // stripe 1 → survives
	fs.LogIntent("f", 0, b0)
	fs.LogIntent("f", 1, b1)
	c0.Write(b0)
	c1.Write(b1)

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
	b := Batch{Ext: interval.List{{Off: 0, Len: 3}}}
	fs.LogIntent("f", 0, b)
	c.Write(b)
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
	b := Batch{Ext: interval.List{{Off: 0, Len: 8}}}
	if err := fs.LogIntent("f", 0, b); err != nil {
		t.Fatal(err)
	}
	c.Write(b)
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
	writeAt(c0, 0, 4)
	writeAt(c1, 4, 4)
	if got, want := image(t, fs, "f", 0, 8), "....1111"; got != want {
		t.Errorf("owners = %q, want %q", got, want)
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
