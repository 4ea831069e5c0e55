package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"atomio/internal/interval"
	"atomio/internal/mpi"
)

func runRanks(t *testing.T, procs int, body mpi.RankFunc) {
	t.Helper()
	if _, err := mpi.Run(mpi.Config{Procs: procs}, body); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeViews checks the exchanged views and pins how they travel:
// row r is rank r's own (canonical) list, not a copy, and every rank holds
// the one table.
func TestExchangeViews(t *testing.T) {
	const p = 5
	sent := make([]interval.List, p)
	tables := make([][]interval.List, p)
	runRanks(t, p, func(c *mpi.Comm) error {
		mine := interval.List{
			{Off: int64(c.Rank() * 100), Len: 10},
			{Off: int64(c.Rank()*100 + 50), Len: 5},
		}
		sent[c.Rank()] = mine
		views := ExchangeViews(c, mine)
		tables[c.Rank()] = views
		if len(views) != c.Size() {
			return fmt.Errorf("got %d views", len(views))
		}
		for r, v := range views {
			want := interval.List{
				{Off: int64(r * 100), Len: 10},
				{Off: int64(r*100 + 50), Len: 5},
			}
			if !v.Equal(want) {
				return fmt.Errorf("view of rank %d = %v, want %v", r, v, want)
			}
		}
		return nil
	})
	for r, views := range tables {
		if unsafe.SliceData(views) != unsafe.SliceData(tables[0]) {
			t.Errorf("rank %d holds its own table, not the shared one", r)
		}
		if unsafe.SliceData(views[r]) != unsafe.SliceData(sent[r]) {
			t.Errorf("row %d is a copy of rank %d's list, not the list itself", r, r)
		}
	}
}

func TestExchangeViewsNormalizes(t *testing.T) {
	runRanks(t, 2, func(c *mpi.Comm) error {
		// Messy input: unsorted, touching extents.
		mine := interval.List{{Off: 10, Len: 5}, {Off: 0, Len: 10}}
		views := ExchangeViews(c, mine)
		if !views[c.Rank()].IsCanonical() {
			return fmt.Errorf("exchanged view not canonical: %v", views[c.Rank()])
		}
		if !views[c.Rank()].Equal(interval.List{{Off: 0, Len: 15}}) {
			return fmt.Errorf("view = %v", views[c.Rank()])
		}
		return nil
	})
}

func TestExchangeSpans(t *testing.T) {
	runRanks(t, 4, func(c *mpi.Comm) error {
		mine := interval.List{
			{Off: int64(c.Rank() * 10), Len: 2},
			{Off: int64(c.Rank()*10 + 6), Len: 2},
		}
		spans := ExchangeSpans(c, mine)
		for r, s := range spans {
			want := interval.Extent{Off: int64(r * 10), Len: 8}
			if s != want {
				return fmt.Errorf("span of %d = %v, want %v", r, s, want)
			}
		}
		return nil
	})
}

func TestEmptyViewExchange(t *testing.T) {
	runRanks(t, 3, func(c *mpi.Comm) error {
		var mine interval.List
		if c.Rank() == 1 {
			mine = interval.List{{Off: 5, Len: 5}}
		}
		views := ExchangeViews(c, mine)
		if len(views[0]) != 0 || len(views[2]) != 0 {
			return fmt.Errorf("empty views decoded non-empty")
		}
		if views[1].TotalLen() != 5 {
			return fmt.Errorf("rank 1 view lost")
		}
		return nil
	})
}

// FuzzDecodeExtents: DecodeExtents never panics on wire bytes — every length
// that is not a whole number of 16-byte pairs is an error — a successful
// decode re-encodes to the bytes it was given, and Decode(Encode(l)) == l.
func FuzzDecodeExtents(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 12)) // not a multiple of 8: used to panic in mpi.DecodeInt64s
	f.Add(make([]byte, 8))  // one int64: half a pair
	f.Add(make([]byte, 24)) // a pair and a half
	f.Add(EncodeExtents(interval.List{{Off: 3, Len: 5}, {Off: -1, Len: 1 << 40}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := DecodeExtents(b)
		if err != nil {
			if len(b)%16 == 0 {
				t.Fatalf("%d-byte payload refused: %v", len(b), err)
			}
			return
		}
		enc := EncodeExtents(l)
		if !bytes.Equal(enc, b) {
			t.Fatalf("decoded %v re-encodes to %x, not the input %x", l, enc, b)
		}
		back, err := DecodeExtents(enc)
		if err != nil || !slices.Equal(back, l) {
			t.Fatalf("Decode(Encode(%v)) = %v, %v", l, back, err)
		}
	})
}
