package index

import (
	"testing"

	"atomio/internal/interval"
)

// FuzzSetAddVisit differentially tests the settle-on-read Set against a
// naive per-byte map model. The input is a sequence of (offset, length)
// byte pairs, each an Add of length&0x7f; a set high bit first probes the
// set for the parts the Add newly covers, so the set settles at arbitrary
// points between adds. After the last Add the canonical-form invariants,
// CoveredBytes, Covers, and a full Visit partition are checked against the
// model. The fault layer leans on Set for damage tracking (commutative
// unions), so it must stay exact under arbitrary overlap, adjacency, and
// containment patterns, however the adds and queries interleave.
func FuzzSetAddVisit(f *testing.F) {
	f.Add([]byte{0, 10, 5, 10, 20, 4, 14, 6})
	f.Add([]byte{10, 4, 0, 30, 10, 4})
	f.Add([]byte{7, 1, 8, 1, 6, 1, 0, 0})
	f.Add([]byte{0, 0x88, 16, 8, 8, 0x88, 40, 8, 32, 0x88, 24, 8, 4, 0xa0})
	f.Fuzz(func(t *testing.T, in []byte) {
		var s Set
		model := make(map[int64]bool)
		var maxEnd int64
		for i := 0; i+1 < len(in) && i < 64; i += 2 {
			e := interval.Extent{Off: int64(in[i]), Len: int64(in[i+1] & 0x7f)}
			if e.End() > maxEnd {
				maxEnd = e.End()
			}
			var want interval.List // the model's uncovered bytes of e
			for pos := e.Off; pos < e.End(); pos++ {
				if !model[pos] {
					want = append(want, interval.Extent{Off: pos, Len: 1})
					model[pos] = true
				}
			}
			if in[i+1]&0x80 != 0 {
				if got := uncovered(&s, e); !got.Equal(want) {
					t.Fatalf("new parts of %v = %v, model wants %v", e, got, want.Normalize())
				}
			}
			s.Add(e)
		}

		// Canonical form: sorted, positive-length, non-touching extents.
		ext := s.Extents()
		var covered int64
		for k, e := range ext {
			if e.Len <= 0 {
				t.Fatalf("extent %d is empty: %v (set %v)", k, e, ext)
			}
			if k > 0 && ext[k-1].End() >= e.Off {
				t.Fatalf("extents %d and %d overlap or touch: %v", k-1, k, ext)
			}
			covered += e.Len
		}
		if s.CoveredBytes() != covered || int64(len(model)) != covered {
			t.Fatalf("CoveredBytes=%d, extent sum=%d, model=%d (set %v)",
				s.CoveredBytes(), covered, len(model), ext)
		}
		if s.Len() != len(ext) {
			t.Fatalf("Len=%d, extents=%d", s.Len(), len(ext))
		}

		// Visit over the whole touched range must partition it into runs
		// matching the model byte-for-byte, alternating coverage.
		probe := interval.Extent{Off: 0, Len: maxEnd + 4}
		cur := probe.Off
		prev := -1
		done := s.Visit(probe, func(part interval.Extent, cov bool) bool {
			if part.Off != cur || part.Empty() {
				t.Fatalf("Visit part %v not contiguous at %d", part, cur)
			}
			if b := boolToInt(cov); b == prev {
				t.Fatalf("Visit produced adjacent runs with equal coverage at %v", part)
			} else {
				prev = b
			}
			for pos := part.Off; pos < part.End(); pos++ {
				if model[pos] != cov {
					t.Fatalf("Visit says covered=%v at %d, model says %v", cov, pos, model[pos])
				}
			}
			cur = part.End()
			return true
		})
		if !done || cur != probe.End() {
			t.Fatalf("Visit stopped early: done=%v cur=%d want %d", done, cur, probe.End())
		}

		// Covers spot checks against the model.
		for _, e := range []interval.Extent{probe, {Off: 0, Len: 1}, {Off: maxEnd / 2, Len: 3}, {}} {
			want := true
			for pos := e.Off; pos < e.End(); pos++ {
				if !model[pos] {
					want = false
					break
				}
			}
			if got := s.Covers(e); got != want {
				t.Fatalf("Covers(%v)=%v, model says %v", e, got, want)
			}
		}
	})
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
