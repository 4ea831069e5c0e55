package verify

import (
	"testing"

	"atomio/internal/interval"
)

// These tests prove the checker can say no: hand-constructed torn files,
// duplicate-grant histories and partial two-phase commits — the outcomes
// the fault layer produces — must all be rejected. The checker only ever
// saw healthy runs before; the fleet gate leans on its rejections.

// view builds a single-extent view.
func view(off, length int64) interval.List {
	return interval.List{{Off: off, Len: length}}
}

// fillRange stamps data[off:off+n] with rank's marker.
func fillRange(data []byte, off, n int64, rank int) {
	for i := off; i < off+n; i++ {
		data[i] = Marker(rank)
	}
}

// TestCheckBytesCleanSerial pins the baseline: a file equal to a serial
// application of the writes passes.
func TestCheckBytesCleanSerial(t *testing.T) {
	data := make([]byte, 20)
	views := []interval.List{view(0, 15), view(5, 15)}
	fillRange(data, 0, 15, 0)
	fillRange(data, 5, 15, 1) // rank 1 wrote last
	rep := CheckBytes(data, views)
	if !rep.Atomic() {
		t.Fatalf("clean serial file rejected: %+v", rep)
	}
	if rep.Outcome != outcome(1) {
		t.Errorf("outcome %x, want rank 1's %x", rep.Outcome, outcome(1))
	}
	if Classify(rep, false) != Serializable {
		t.Errorf("verdict = %v, want %v", Classify(rep, false), Serializable)
	}
	if Classify(rep, true) != RecoveredSerializable {
		t.Errorf("recovered verdict = %v, want %v", Classify(rep, true), RecoveredSerializable)
	}
}

// TestCheckBytesTornInterleaving rejects a torn overlap: the atom holds a
// byte-interleaved mix of both writers.
func TestCheckBytesTornInterleaving(t *testing.T) {
	data := make([]byte, 20)
	views := []interval.List{view(0, 15), view(5, 15)}
	fillRange(data, 0, 15, 0)
	fillRange(data, 5, 15, 1)
	data[7] = Marker(0) // one stale byte inside the overlap
	rep := CheckBytes(data, views)
	if rep.Atomic() {
		t.Fatal("interleaved overlap accepted")
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %+v, want one", rep.Violations)
	}
	if Classify(rep, true) != Torn {
		t.Errorf("verdict = %v, want %v even with recovery claimed", Classify(rep, true), Torn)
	}
}

// TestCheckBytesLostData rejects zeros in an overlapped atom — the
// signature of a crashed server that dropped both writers' stripes.
func TestCheckBytesLostData(t *testing.T) {
	data := make([]byte, 20)
	views := []interval.List{view(0, 15), view(5, 15)}
	fillRange(data, 0, 15, 0)
	fillRange(data, 5, 15, 1)
	for i := 8; i < 12; i++ { // four bytes of the overlap revert to zero
		data[i] = 0
	}
	rep := CheckBytes(data, views)
	if rep.Atomic() {
		t.Fatal("lost (zeroed) overlap accepted")
	}
}

// TestCheckBytesForeignMarker rejects an atom holding a marker that
// belongs to none of its covering writers.
func TestCheckBytesForeignMarker(t *testing.T) {
	data := make([]byte, 20)
	views := []interval.List{view(0, 15), view(5, 15)}
	fillRange(data, 0, 15, 0)
	fillRange(data, 5, 15, 7) // rank 7 never covers this region
	rep := CheckBytes(data, views)
	if rep.Atomic() {
		t.Fatal("foreign marker accepted")
	}
}

// TestCheckBytesDuplicateGrantHistory rejects the duplicate-grant outcome:
// two writers each "win" one of two shared atoms — each uniform, but
// jointly admitting no serialization order (a cycle). This is what the
// file looks like when a lock manager hands the same range to two holders.
func TestCheckBytesDuplicateGrantHistory(t *testing.T) {
	views := []interval.List{
		{{Off: 0, Len: 10}, {Off: 20, Len: 10}},
		{{Off: 0, Len: 10}, {Off: 20, Len: 10}},
	}
	data := make([]byte, 30)
	fillRange(data, 0, 10, 0)  // atom 1: rank 0 won → 0 after 1
	fillRange(data, 20, 10, 1) // atom 2: rank 1 won → 1 after 0
	rep := CheckBytes(data, views)
	if len(rep.Violations) != 0 {
		t.Fatalf("unexpected per-atom violations: %+v", rep.Violations)
	}
	if rep.OrderViolation == nil {
		t.Fatal("crossed winners accepted: no order violation reported")
	}
	if rep.Atomic() {
		t.Fatal("duplicate-grant history accepted")
	}
	if Classify(rep, false) != Torn {
		t.Errorf("verdict = %v, want %v", Classify(rep, false), Torn)
	}
}

// TestCheckBytesPartialTwoPhaseCommit rejects a partial two-phase commit:
// the crashed aggregator wrote only a prefix of its file domain, leaving
// the rest of the overlapped region as zeros.
func TestCheckBytesPartialTwoPhaseCommit(t *testing.T) {
	// Ranks 0 and 1 overlap on [8, 24); the two-phase merge gave the whole
	// overlap to rank 1, whose aggregator died after committing [8, 16).
	views := []interval.List{view(0, 24), view(8, 24)}
	data := make([]byte, 32)
	fillRange(data, 0, 8, 0)
	fillRange(data, 8, 8, 1)
	// [16, 24) never committed: zeros.
	fillRange(data, 24, 8, 1)
	rep := CheckBytes(data, views)
	if rep.Atomic() {
		t.Fatal("partial two-phase commit accepted")
	}
}

// TestCheckBytesThreeWriterCycle rejects a three-way winner cycle
// (0 after 1, 1 after 2, 2 after 0) — no pairwise atom is dirty, the
// inconsistency only exists globally.
func TestCheckBytesThreeWriterCycle(t *testing.T) {
	views := []interval.List{
		{{Off: 0, Len: 10}, {Off: 40, Len: 10}},  // shares [0,10) with 1, [40,50) with 2
		{{Off: 0, Len: 10}, {Off: 20, Len: 10}},  // shares [20,30) with 2
		{{Off: 20, Len: 10}, {Off: 40, Len: 10}}, //
	}
	data := make([]byte, 50)
	fillRange(data, 0, 10, 0)  // 0 after 1
	fillRange(data, 20, 10, 1) // 1 after 2
	fillRange(data, 40, 10, 2) // 2 after 0
	rep := CheckBytes(data, views)
	if rep.OrderViolation == nil {
		t.Fatal("three-way winner cycle accepted")
	}
}

// TestCheckBytesShortFile pins the implicit-zero tail: an overlap past the
// end of the image reads as lost data and is rejected.
func TestCheckBytesShortFile(t *testing.T) {
	views := []interval.List{view(0, 64), view(32, 64)}
	data := make([]byte, 16) // file image far shorter than the views
	fillRange(data, 0, 16, 0)
	rep := CheckBytes(data, views)
	if rep.Atomic() {
		t.Fatal("overlap past end of image accepted")
	}
}
