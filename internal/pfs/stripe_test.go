package pfs

import (
	"math/rand"
	"slices"
	"testing"
)

// stripePiece is one piece of a stripe walk: n bytes at off, homed on server.
type stripePiece struct {
	server int
	off, n int64
}

// perPieceStripes is the stripe walk that serverWalk replaced, kept as its
// reference: it divides afresh on every piece of every extent for the
// piece's length and its home server.
func perPieceStripes(stripe int64, servers int, exts [][2]int64) []stripePiece {
	var out []stripePiece
	for _, e := range exts {
		for off, n := e[0], e[1]; n > 0; {
			take := min(n, stripe-off%stripe)
			out = append(out, stripePiece{int((off / stripe) % int64(servers)), off, take})
			off += take
			n -= take
		}
	}
	return out
}

// TestQuickStripeWalkMatchesPerPieceDivision pins the round-robin
// serverWalk, which carries its stripe and server from one extent to the
// next and steps them, to the per-piece division. One walk crosses each list of extents: hand-picked
// ones — an offset on a stripe boundary, a length that is an exact multiple
// of the stripe, a short extent that crosses a boundary, extents that end on
// a boundary or touch, a walk that wraps past the last server, a single
// server, offsets past 2^32, a list out of order — and random stripe sizes,
// server counts, offsets and lengths, in lists that ascend with gaps within
// a stripe, across one stripe and across several, or that do not ascend.
func TestQuickStripeWalkMatchesPerPieceDivision(t *testing.T) {
	type walk struct {
		stripe  int64
		servers int
		exts    [][2]int64 // offset, length
	}
	walks := []walk{
		{64, 3, [][2]int64{{128, 10}}},                    // starts on a boundary
		{64, 3, [][2]int64{{64, 192}}},                    // from a boundary, exactly three stripes
		{64, 3, [][2]int64{{10, 128}}},                    // a multiple of the stripe, off a boundary
		{64, 4, [][2]int64{{60, 8}}},                      // short, across a boundary
		{64, 4, [][2]int64{{0, 64 * 9}}},                  // wraps past the last server twice
		{64, 3, [][2]int64{{0, 64}, {64, 10}, {74, 54}}},  // ends on a boundary; touching
		{64, 3, [][2]int64{{10, 5}, {20, 5}, {200, 300}}}, // same stripe, then a skip
		{64, 1, [][2]int64{{30, 200}, {250, 3}}},          // one server: every piece on server 0
		{1, 5, [][2]int64{{3, 11}, {14, 2}}},              // one-byte stripes
		{256 << 10, 12, [][2]int64{{5 << 40, 1 << 20}, {5<<40 + 3<<20, 7}}},
		{64, 3, [][2]int64{{300, 10}, {20, 100}, {130, 1}}}, // out of order
	}
	r := rand.New(rand.NewSource(56))
	for range 2000 {
		w := walk{stripe: 1 + r.Int63n(100), servers: 1 + r.Intn(8)}
		off := r.Int63n(w.stripe * int64(w.servers) * 5)
		if r.Intn(4) == 0 {
			off += int64(r.Intn(1<<10)) << 32
		}
		ascending := r.Intn(5) > 0
		for k := 1 + r.Intn(8); k > 0; k-- {
			n := r.Int63n(w.stripe*int64(w.servers)*2) + 1
			switch r.Intn(4) {
			case 0:
				off -= off % w.stripe
			case 1:
				n = w.stripe * (1 + r.Int63n(2*int64(w.servers)))
			case 2:
				n = 1 + r.Int63n(w.stripe)
			}
			w.exts = append(w.exts, [2]int64{off, n})
			if !ascending {
				off = r.Int63n(w.stripe * int64(w.servers) * 5)
				continue
			}
			gaps := []int64{0, r.Int63n(w.stripe), w.stripe + r.Int63n(w.stripe), r.Int63n(w.stripe * 20)}
			off += n + gaps[r.Intn(len(gaps))]
		}
		walks = append(walks, w)
	}
	for _, w := range walks {
		cfg := Config{StripeSize: w.stripe, Servers: w.servers}
		walk := cfg.walk(0)
		var got []stripePiece
		for _, e := range w.exts {
			for off, n := e[0], e[1]; n > 0; {
				server, take := walk.piece(off, n)
				got = append(got, stripePiece{server, off, take})
				off, n = off+take, n-take
			}
		}
		if want := perPieceStripes(w.stripe, w.servers, w.exts); !slices.Equal(got, want) {
			t.Fatalf("stripe %d over %d servers, extents %v: pieces\n%v\nwant\n%v",
				w.stripe, w.servers, w.exts, got, want)
		}
	}
}

// TestAffinityWalkKeepsWholeExtents: in ClientAffinity mode every extent is
// one piece on the rank's server, from the boot-time map or the Affinity
// override, wherever the extents lie.
func TestAffinityWalkKeepsWholeExtents(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	for _, affinity := range [][]int{nil, {2, 0}} {
		cfg := Config{Servers: 3, StripeSize: 64, Mode: ClientAffinity, Affinity: affinity}
		for rank := range 5 {
			want := rank % 3
			if affinity != nil {
				want = affinity[rank%2]
			}
			walk := cfg.walk(rank)
			for range 50 {
				off, n := r.Int63n(1<<40), 1+r.Int63n(1<<20)
				if server, take := walk.piece(off, n); server != want || take != n {
					t.Fatalf("affinity %v, rank %d: [%d, +%d) is %d bytes on server %d, want %d on %d",
						affinity, rank, off, n, take, server, n, want)
				}
			}
		}
	}
}
