package verify

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/pfs"
	"atomio/internal/sim"
)

func ext(off, l int64) interval.Extent { return interval.Extent{Off: off, Len: l} }

func newFS() *pfs.FileSystem {
	return fsOf(pfs.Config{Servers: 1, StoreData: true})
}

// fsOf is pfs.New for a static configuration.
func fsOf(cfg pfs.Config) *pfs.FileSystem {
	fs, err := pfs.New(cfg)
	if err != nil {
		panic(err)
	}
	return fs
}

func write(t *testing.T, fs *pfs.FileSystem, rank int, segs ...interval.Extent) {
	t.Helper()
	c, err := fs.Open("f", rank, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(pfs.Batch{Ext: segs})
}

func TestMarkerAndFill(t *testing.T) {
	if Marker(0) != 1 || Marker(15) != 16 {
		t.Fatal("marker values")
	}
	if Marker(0) == 0 {
		t.Fatal("marker 0 must not collide with unwritten bytes")
	}
	for _, n := range []int{0, 1, 4, 3<<13 + 5} {
		buf := make([]byte, n)
		Fill(3, buf)
		for i, b := range buf {
			if b != 4 {
				t.Fatalf("fill of %d bytes: byte %d is %d", n, i, b)
			}
		}
	}
}

func TestCleanOverlapPasses(t *testing.T) {
	fs := newFS()
	// Rank 0 writes [0,100); rank 1 writes [50,150) after: region [50,100)
	// is uniformly rank 1. Atomic.
	write(t, fs, 0, ext(0, 100))
	write(t, fs, 1, ext(50, 100))
	views := []interval.List{{ext(0, 100)}, {ext(50, 100)}}
	rep, err := Check(fs, "f", views)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Atomic() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Atoms != 1 || rep.OverlappedBytes != 50 {
		t.Fatalf("atoms=%d bytes=%d", rep.Atoms, rep.OverlappedBytes)
	}
	if rep.Outcome != outcome(1) {
		t.Fatalf("outcome %x, want rank 1's %x", rep.Outcome, outcome(1))
	}
}

func TestInterleavingDetected(t *testing.T) {
	fs := newFS()
	write(t, fs, 0, ext(0, 100))
	write(t, fs, 1, ext(50, 100))
	// Corrupt the overlap with interleaved data: rank 0 again, partially.
	write(t, fs, 0, ext(60, 10))
	rep, err := Check(fs, "f", []interval.List{{ext(0, 100)}, {ext(50, 100)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Atomic() {
		t.Fatal("interleaving not detected")
	}
	v := rep.Violations[0]
	if v.Region != ext(50, 50) || !slices.Equal(v.Found, []int{0, 1}) {
		t.Fatalf("violation = %+v", v)
	}
	// The tear is named: rank 1's data, then rank 0's, then rank 1's again.
	want := "verify: region [50,100) covered by ranks [0 1] holds data of ranks [0 1] in runs [[50,60)=1 [60,70)=0 [70,100)=1]"
	if got := v.Error(); got != want {
		t.Fatalf("violation renders as\n%s\nwant\n%s", got, want)
	}
}

func TestForeignDataInOverlapDetected(t *testing.T) {
	fs := newFS()
	// The overlap holds a marker belonging to neither writer.
	write(t, fs, 7, ext(50, 50)) // stray rank 7 data
	rep, err := Check(fs, "f", []interval.List{{ext(0, 100)}, {ext(50, 100)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Atomic() {
		t.Fatal("foreign uniform data should still violate")
	}
}

func TestTripleOverlapAtoms(t *testing.T) {
	fs := newFS()
	// Three nested writers; serialization order 0 then 1 then 2.
	write(t, fs, 0, ext(0, 90))
	write(t, fs, 1, ext(30, 60))
	write(t, fs, 2, ext(60, 30))
	views := []interval.List{{ext(0, 90)}, {ext(30, 60)}, {ext(60, 30)}}
	rep, err := Check(fs, "f", views)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Atomic() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// Atoms: [30,60) covered by {0,1}; [60,90) covered by {0,1,2}.
	if rep.Atoms != 2 {
		t.Fatalf("atoms = %d, want 2", rep.Atoms)
	}
	if rep.Outcome != outcome(1, 2) {
		t.Fatalf("outcome %x, want ranks 1 and 2's %x", rep.Outcome, outcome(1, 2))
	}
}

func TestMixedAcrossAtomsButUniformWithinPasses(t *testing.T) {
	// The scenario that breaks naive pairwise-uniformity checking: within
	// the overlap of ranks 0 and 1, a sub-region belongs to rank 2 (who
	// also covers it) — still atomic because each *atom* is uniform.
	fs := newFS()
	write(t, fs, 0, ext(0, 100))
	write(t, fs, 1, ext(0, 100))
	write(t, fs, 2, ext(40, 20))
	views := []interval.List{{ext(0, 100)}, {ext(0, 100)}, {ext(40, 20)}}
	rep, err := Check(fs, "f", views)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Atomic() {
		t.Fatalf("atom-based check should pass: %v", rep.Violations)
	}
}

func TestNonContiguousViewsAtoms(t *testing.T) {
	fs := newFS()
	// Column-wise style: interleaved rows, overlap in two pieces.
	v0 := interval.List{ext(0, 6), ext(10, 6)}
	v1 := interval.List{ext(4, 6), ext(14, 6)}
	write(t, fs, 0, v0...)
	write(t, fs, 1, v1...)
	rep, err := Check(fs, "f", []interval.List{v0, v1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Atomic() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Atoms != 2 || rep.OverlappedBytes != 4 {
		t.Fatalf("atoms=%d bytes=%d, want 2/4", rep.Atoms, rep.OverlappedBytes)
	}
}

func TestNoOverlapNoAtoms(t *testing.T) {
	fs := newFS()
	write(t, fs, 0, ext(0, 10))
	write(t, fs, 1, ext(20, 10))
	rep, err := Check(fs, "f", []interval.List{{ext(0, 10)}, {ext(20, 10)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Atoms != 0 || !rep.Atomic() {
		t.Fatalf("rep = %+v", rep)
	}
}

// TestCleanAtomsAllocateNothing pins the clean-atom path: checking a clean
// image allocates as many objects and bytes at 4 096 atoms as at 8 192 — no
// map entry, byte slice, winner or slice growth per atom — and Outcome
// names every atom's winner in file order. The collector is off while it
// counts: a cycle started by the image's own buffers allocates too.
func TestCleanAtomsAllocateNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type cost struct{ objects, bytes uint64 }
	allocs := func(atoms int) cost {
		views := []interval.List{make(interval.List, atoms), make(interval.List, atoms)}
		data := make([]byte, atoms*100)
		won := make([]int, atoms)
		for i := range atoms {
			off := int64(i) * 100
			views[0][i], views[1][i] = ext(off, 60), ext(off+40, 40)
			Fill(0, data[off:off+60])
			Fill(1, data[off+40:off+80]) // rank 1 wins [off+40, off+60)
			won[i] = 1
		}
		log := imageLog(data)
		rep := check(log, views)
		if !rep.Atomic() || rep.Atoms != atoms || rep.OverlappedBytes != int64(atoms)*20 {
			t.Fatalf("%d atoms: report %d atoms of %d bytes, atomic %v", atoms, rep.Atoms, rep.OverlappedBytes, rep.Atomic())
		}
		if want := outcome(won...); rep.Outcome != want {
			t.Fatalf("%d atoms: outcome %x, want rank 1's on each, %x", atoms, rep.Outcome, want)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			check(log, views)
		}
		runtime.ReadMemStats(&after)
		return cost{(after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs}
	}
	if small, large := allocs(4096), allocs(8192); small != large {
		t.Fatalf("check allocates %d objects of %d bytes at 4096 atoms and %d of %d at 8192",
			small.objects, small.bytes, large.objects, large.bytes)
	}
}

func TestCheckMissingFile(t *testing.T) {
	fs := newFS()
	if _, err := Check(fs, "nope", []interval.List{{ext(0, 10)}, {ext(5, 10)}}); err == nil {
		t.Fatal("expected error for missing file")
	}
}
