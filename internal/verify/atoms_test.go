package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/pfs"
	"atomio/internal/sim"
)

// atom is one region of the file with the ranks whose views cover it.
type atom struct {
	region  interval.Extent
	writers []int
}

// atomsByCuts is the partition the checker used before it swept: collect
// every endpoint of every normalized view into a cut set, sort it, and ask
// each view by binary search whether it covers each piece between two cuts.
// It shares nothing with index.Sweep — no schedule, no open set — so it
// stays as the oracle for the atoms Check assembles.
func atomsByCuts(views []interval.List) []atom {
	norm := make([]interval.List, len(views))
	cutSet := make(map[int64]bool)
	for i, v := range views {
		norm[i] = v.Normalize()
		for _, e := range norm[i] {
			cutSet[e.Off] = true
			cutSet[e.End()] = true
		}
	}
	cuts := make([]int64, 0, len(cutSet))
	for c := range cutSet {
		cuts = append(cuts, c)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	var out []atom
	for k := 0; k+1 < len(cuts); k++ {
		region := interval.Extent{Off: cuts[k], Len: cuts[k+1] - cuts[k]}
		var writers []int
		for i, l := range norm {
			j := sort.Search(len(l), func(j int) bool { return l[j].End() > region.Off })
			if j < len(l) && l[j].Off <= region.Off {
				writers = append(writers, i)
			}
		}
		if len(writers) >= 2 {
			out = append(out, atom{region, writers})
		}
	}
	return out
}

// sweptAtoms collects the atoms of views as Check assembles them from
// index.Sweep, which takes them canonical: with no records, every piece of
// two or more views is one, its writers the views, ascending.
func sweptAtoms(views []interval.List) []atom {
	var out []atom
	index.Sweep(nil, canonical(views), func(p *index.Piece) {
		if len(p.Views) >= 2 {
			writers := make([]int, 0, len(p.Views))
			for _, w := range p.Views {
				writers = append(writers, int(w))
			}
			slices.Sort(writers)
			out = append(out, atom{p.Extent, writers})
		}
	})
	return out
}

// columnViews is the paper's column-wise partition flattened by hand: p
// ranks, rows of p·w bytes, each rank's w columns widened by ov on both
// sides, so neighbours overlap in 2·ov columns of every row.
func columnViews(p, rows int, w, ov int64) []interval.List {
	views := make([]interval.List, p)
	for r := range views {
		lo, hi := max(int64(r)*w-ov, 0), min(int64(r+1)*w+ov, int64(p)*w)
		for row := 0; row < rows; row++ {
			views[r] = append(views[r], interval.Extent{Off: int64(row)*int64(p)*w + lo, Len: hi - lo})
		}
	}
	return views
}

// canonical returns each view normalized, as a view's producers build it
// and Check takes it.
func canonical(views []interval.List) []interval.List {
	out := make([]interval.List, len(views))
	for i, v := range views {
		out[i] = v.Normalize()
	}
	return out
}

// randomViews draws p lists of the shapes a merged schedule has to get
// right: empty lists, single extents, exact copies of an earlier list,
// chains of touching extents, extents nested in one another, and unsorted
// self-overlapping lists — on small coordinates, so endpoints tie — and
// returns them canonical.
func randomViews(r *rand.Rand, p int) []interval.List {
	views := make([]interval.List, p)
	for i := range views {
		switch shape := r.Intn(6); {
		case shape == 0:
		case shape == 1:
			views[i] = interval.List{ext(int64(r.Intn(60)), 1+int64(r.Intn(20)))}
		case shape == 2 && i > 0:
			views[i] = views[r.Intn(i)].Clone()
		case shape == 3:
			off := int64(r.Intn(20))
			for k := r.Intn(6); k >= 0; k-- {
				l := 1 + int64(r.Intn(8))
				views[i] = append(views[i], ext(off, l))
				off += l
			}
		case shape == 4:
			off, l := int64(r.Intn(30)), 20+int64(r.Intn(30))
			for ; l > 0; off, l = off+1+int64(r.Intn(3)), l-2-int64(r.Intn(8)) {
				views[i] = append(views[i], ext(off, l))
			}
		default:
			for k := r.Intn(8); k > 0; k-- {
				views[i] = append(views[i], ext(int64(r.Intn(80)), int64(r.Intn(16))))
			}
		}
	}
	return canonical(views)
}

// TestSweepAtomsMatchesCutOracle compares the sweep's atoms — regions, their
// order, and each one's writers in ascending order — with the cut-set
// partition on hand-picked and random adversarial view sets.
func TestSweepAtomsMatchesCutOracle(t *testing.T) {
	cases := map[string][]interval.List{
		"no views":      nil,
		"empty views":   {nil, {}, nil},
		"one extent":    {{ext(5, 10)}},
		"identical":     {{ext(0, 10), ext(20, 5)}, {ext(0, 10), ext(20, 5)}, {ext(0, 10), ext(20, 5)}},
		"touching":      {{ext(0, 10)}, {ext(10, 10)}, {ext(0, 5), ext(5, 5)}},
		"nested":        {{ext(0, 100)}, {ext(10, 50)}, {ext(20, 10)}, {ext(25, 1)}},
		"unsorted":      {{ext(50, 10), ext(0, 10), ext(5, 10)}, {ext(55, 1), ext(2, 2), ext(2, 2)}},
		"three-way":     {{ext(0, 30)}, {ext(10, 30)}, {ext(20, 30)}},
		"close at open": {{ext(0, 20)}, {ext(0, 20)}, {ext(2, 3)}, {ext(5, 3)}},
		"column-wise":   columnViews(16, 8, 32, 4),
		"past 255":      columnViews(300, 1, 4, 1),
	}
	r := rand.New(rand.NewSource(11))
	for round := 0; round < 400; round++ {
		cases[fmt.Sprintf("random %d", round)] = randomViews(r, r.Intn(20))
	}
	multi := 0
	for name, views := range cases {
		got, want := sweptAtoms(views), atomsByCuts(views)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sweep\n%v\ncut oracle\n%v\nviews %v", name, got, want, views)
		}
		multi += len(want)
	}
	if multi < 1000 {
		t.Fatalf("only %d atoms compared; the shapes overlap too little", multi)
	}
}

// TestCheckWindowedMatchesCheckBytes holds the owner runs the store keeps
// to the writes made (the name is from when Check read the file's bytes
// through a window): on a stored column-wise file in each stripe mode, Check
// (the records' writers) and CheckBytes (the marker image the test renders
// from its own writes) must give reports equal field for field — on the
// clean file, which includes an atom spanning many stripes, and on the file
// torn the way the pinned fleet control tears it, every other stripe of the
// overlaps missing.
func TestCheckWindowedMatchesCheckBytes(t *testing.T) {
	const (
		p      = 4
		rows   = 64
		stripe = 4096
	)
	views := columnViews(p, rows, 4096, 256)
	// Two more ranks share one region of many stripes past the array, and
	// a third overlaps its tail.
	big := ext(int64(rows)*p*4096+stripe, 1<<20+1<<19)
	views = append(views, interval.List{big}, interval.List{big}, interval.List{ext(big.End()-100, 300)})

	for _, mode := range []pfs.StripeMode{pfs.RoundRobin, pfs.ClientAffinity} {
		for _, torn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/torn=%v", mode, torn), func(t *testing.T) {
				fs := fsOf(pfs.Config{Servers: 3, StripeSize: stripe, Mode: mode, StoreData: true})
				// image is the marker image of the writes made: each byte the
				// marker of the rank that wrote it last, zero if none did.
				image := make([]byte, big.End()+300)
				for rank, v := range views { // rank order: the highest writer wins
					c, err := fs.Open("f", rank, sim.NewClock(0))
					if err != nil {
						t.Fatal(err)
					}
					write := func(e interval.Extent) {
						c.Write(pfs.Batch{Ext: interval.List{e}})
						Fill(rank, image[e.Off:e.End()])
					}
					for _, e := range v {
						if !torn || rank == 0 {
							write(e)
							continue
						}
						// A server that was down: odd stripes never arrive.
						for off := e.Off; off < e.End(); {
							n := min(stripe-off%stripe, e.End()-off)
							if (off/stripe)%2 == 0 {
								write(ext(off, n))
							}
							off += n
						}
					}
				}
				got, err := Check(fs, "f", views)
				if err != nil {
					t.Fatal(err)
				}
				want := CheckBytes(image, views)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("owner check %+v\nimage check %+v", got, want)
				}
				if got.Atomic() == torn || got.Atoms < rows*(p-1) {
					t.Fatalf("torn=%v: atomic=%v over %d atoms, %d violations", torn, got.Atomic(), got.Atoms, len(got.Violations))
				}
			})
		}
	}
}
