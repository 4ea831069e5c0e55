package mpiio

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"atomio/internal/core"
	"atomio/internal/datatype"
	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/mpi"
	"atomio/internal/obs"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/trace"
	"atomio/internal/workload"
)

// TestWriteReadRoundTripThroughView writes through overlapping column-wise
// views with each of the five strategies, directly and through a
// write-behind cache. Exactly the bytes some view covers must be written,
// each owned by a rank whose view covers it — the highest such rank under
// ordering and twophase, which give contested bytes to the highest writer.
func TestWriteReadRoundTripThroughView(t *testing.T) {
	const m, n, p, r = 16, 64, 4, 4
	strategies := []core.Strategy{core.Locking{}, core.Coloring{}, core.RankOrder{}, core.TwoPhase{}, core.ListIO{}}
	for _, cached := range []bool{false, true} {
		for _, strat := range strategies {
			t.Run(fmt.Sprintf("%s/cached=%v", strat.Name(), cached), func(t *testing.T) {
				cfg := testFS().Config()
				cfg.AtomicListIO = true
				if cached {
					cfg.Cache = cachingFS().Config().Cache
				}
				fs, mgr := fsOf(cfg), testMgr()
				reqs := make([]interval.List, p)
				runOn(t, des.New().NewCoord(p), fs, mgr, func(c *mpi.Comm) error {
					piece, err := workload.ColumnWise(m, n, p, r, c.Rank())
					if err != nil {
						return err
					}
					f, err := Open(c, fs, mgr, "rt.dat")
					if err != nil {
						return err
					}
					f.SetView(0, datatype.Byte, piece.Filetype)
					f.SetAtomicity(true)
					f.SetStrategy(strat)
					if err := f.WriteAll(piece.BufBytes); err != nil {
						return err
					}
					reqs[c.Rank()] = f.View().Extents(0, piece.BufBytes)
					return f.Close()
				})
				owners, err := ownersOf(fs, "rt.dat")
				if err != nil {
					t.Fatal(err)
				}
				owner := make([]int, m*n) // each byte's writer, -1 for none
				for x := range owner {
					owner[x] = -1
				}
				for _, o := range owners {
					for x := o.Off; x < o.End(); x++ {
						owner[x] = o.Rank
					}
				}
				highestWins := strat.Name() == "ordering" || strat.Name() == "twophase"
				for x, got := range owner {
					var want []int // the ranks got may be
					for rank := p - 1; rank >= 0; rank-- {
						if reqs[rank].Overlaps(interval.List{{Off: int64(x), Len: 1}}) && (!highestWins || len(want) == 0) {
							want = append(want, rank)
						}
					}
					if len(want) == 0 && got != -1 || len(want) > 0 && !slices.Contains(want, got) {
						t.Fatalf("file byte %d (row %d, column %d) owned by %d, want one of %v", x, x/n, x%n, got, want)
					}
				}
			})
		}
	}
}

func TestSeekTell(t *testing.T) {
	fs := testFS()
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, fs, nil, "seek.dat")
		if err != nil {
			return err
		}
		// int32 etype: offsets are in 4-byte units.
		etype := datatype.Elem{Width: 4, Name: "int32"}
		f.SetView(0, etype, datatype.NewContiguous(8, etype))
		if f.Tell() != 0 {
			return fmt.Errorf("fresh Tell = %d", f.Tell())
		}
		if err := f.WriteAll(8); err != nil { // 2 etypes
			return err
		}
		if f.Tell() != 2 {
			return fmt.Errorf("Tell after 2-etype write = %d", f.Tell())
		}
		if err := f.SeekSet(5); err != nil {
			return err
		}
		if f.Tell() != 5 {
			return fmt.Errorf("Tell after seek = %d", f.Tell())
		}
		if err := f.SeekSet(-1); err == nil {
			return fmt.Errorf("negative seek accepted")
		}
		return f.Close()
	})
}

func TestSuccessiveWritesAdvancePointer(t *testing.T) {
	fs := testFS()
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, fs, nil, "adv.dat")
		if err != nil {
			return err
		}
		f.SetAtomicity(false)
		if err := f.WriteAll(3); err != nil {
			return err
		}
		if err := f.WriteAll(3); err != nil {
			return err
		}
		return f.Close()
	})
	owners, err := ownersOf(fs, "adv.dat")
	if err != nil {
		t.Fatal(err)
	}
	if want := []index.Owned{{Extent: intervalExt(0, 6)}}; !reflect.DeepEqual(owners, want) {
		t.Fatalf("owners = %v, want %v", owners, want)
	}
}

func TestEtypeGranularityEnforced(t *testing.T) {
	fs := testFS()
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, fs, nil, "etype.dat")
		if err != nil {
			return err
		}
		etype := datatype.Elem{Width: 8, Name: "double"}
		f.SetView(0, etype, datatype.NewContiguous(4, etype))
		if err := f.WriteAll(12); err == nil {
			return fmt.Errorf("1.5-etype write accepted")
		}
		if err := f.WriteAll(16); err != nil {
			return err
		}
		return f.Close()
	})
}

// TestWriteAllSized pins the sized collective write: it is refused where
// the length is malformed, without moving the file pointer; otherwise it
// moves the pointer, counts the bytes written and, on a file system that
// stores data, keeps who wrote each byte its view maps.
func TestWriteAllSized(t *testing.T) {
	etype := datatype.Elem{Width: 8, Name: "double"}
	fs := testFS()
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, fs, testMgr(), "sized.dat")
		if err != nil {
			return err
		}
		if err := f.SetView(0, etype, datatype.NewSubarray([]int{4, 2}, []int{4, 1}, []int{0, 0}, etype)); err != nil {
			return err
		}
		if err := f.SetAtomicity(true); err != nil {
			return err
		}
		if err := f.WriteAll(12); err == nil || !strings.Contains(err.Error(), "whole number of etypes") {
			return fmt.Errorf("1.5-etype write: %v", err)
		}
		if err := f.WriteAll(-8); err == nil {
			return fmt.Errorf("negative write accepted")
		}
		if f.Tell() != 0 {
			return fmt.Errorf("refused writes moved the file pointer to %d", f.Tell())
		}
		if err := f.WriteAll(24); err != nil {
			return err
		}
		if f.Tell() != 3 || f.Client().BytesWritten() != 24 {
			return fmt.Errorf("after 24 bytes: pointer %d, written %d", f.Tell(), f.Client().BytesWritten())
		}
		return f.Close()
	})
	owners, _ := ownersOf(fs, "sized.dat")
	if want := []index.Owned{{Extent: intervalExt(0, 8)}, {Extent: intervalExt(16, 8)}, {Extent: intervalExt(32, 8)}}; !reflect.DeepEqual(owners, want) {
		t.Errorf("stored owners %v, want %v", owners, want)
	}
}

func TestClosedFileErrors(t *testing.T) {
	fs := testFS()
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, fs, nil, "closed.dat")
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		for name, op := range map[string]func() error{
			"WriteAll":     func() error { return f.WriteAll(1) },
			"Write":        func() error { return f.Write(1) },
			"SetView":      func() error { return f.SetView(0, datatype.Byte, datatype.Byte) },
			"SetAtomicity": func() error { return f.SetAtomicity(true) },
			"SetStrategy":  func() error { return f.SetStrategy(core.RankOrder{}) },
			"Sync":         func() error { return f.Sync() },
			"SeekSet":      func() error { return f.SeekSet(0) },
			"Close":        func() error { return f.Close() },
		} {
			if err := op(); !errors.Is(err, ErrClosed) {
				return fmt.Errorf("%s on closed file: %v", name, err)
			}
		}
		return nil
	})
}

func TestSetStrategyNil(t *testing.T) {
	fs := testFS()
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, fs, nil, "nil.dat")
		if err != nil {
			return err
		}
		if err := f.SetStrategy(nil); err == nil {
			return fmt.Errorf("nil strategy accepted")
		}
		return f.Close()
	})
}

func TestIndependentWriteAtomicWithLocking(t *testing.T) {
	// §5: independent (non-collective) atomic writes are possible only
	// through locking. Two ranks write overlapping contiguous ranges
	// independently; the result must be single-source.
	fs := testFS()
	mgr := testMgr()
	runOn(t, des.New().NewCoord(2), fs, mgr, func(c *mpi.Comm) error {
		f, err := Open(c, fs, mgr, "indep.dat")
		if err != nil {
			return err
		}
		f.SetAtomicity(true)
		// Overlapping whole-file views (contiguous).
		if err := f.Write(64); err != nil {
			return err
		}
		return f.Close()
	})
	owners, err := ownersOf(fs, "indep.dat")
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 1 || owners[0].Extent != intervalExt(0, 64) || owners[0].Rank > 1 {
		t.Fatalf("independent atomic writes interleaved: owners %v", owners)
	}
}

func TestIndependentAtomicWriteWithoutLockingFails(t *testing.T) {
	fs := testFS()
	run(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, fs, nil, "indep2.dat")
		if err != nil {
			return err
		}
		f.SetAtomicity(true)
		err = f.Write(8)
		if !errors.Is(err, core.ErrNoLockManager) {
			return fmt.Errorf("err = %v, want ErrNoLockManager (paper §5)", err)
		}
		return f.Close()
	})
}

func TestAccessors(t *testing.T) {
	fs := testFS()
	run(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, fs, nil, "acc.dat")
		if err != nil {
			return err
		}
		if f.Name() != "acc.dat" {
			return fmt.Errorf("Name = %q", f.Name())
		}
		if f.Comm().Size() != 2 {
			return fmt.Errorf("comm size = %d", f.Comm().Size())
		}
		if f.Client() == nil {
			return fmt.Errorf("nil client")
		}
		if f.Atomicity() {
			return fmt.Errorf("atomicity should default to off")
		}
		if f.View().Disp != 0 {
			return fmt.Errorf("default view disp = %d", f.View().Disp)
		}
		return f.Close()
	})
}

func TestMultiTileWriteAppendsSlabs(t *testing.T) {
	// Writing 2x the filetype size tiles the view: the second tile lands
	// one whole-array slab later (subarray extent = whole array). This is
	// how a time-series of checkpoints lands in one file.
	fs := testFS()
	run(t, 2, func(c *mpi.Comm) error {
		piece, _ := workload.ColumnWise(4, 8, 2, 2, c.Rank())
		f, err := Open(c, fs, nil, "tiles.dat")
		if err != nil {
			return err
		}
		f.SetView(0, datatype.Byte, piece.Filetype)
		f.SetAtomicity(true)
		f.SetStrategy(core.RankOrder{})
		if err := f.WriteAll(2 * piece.BufBytes); err != nil {
			return err
		}
		return f.Close()
	})
	owners, err := ownersOf(fs, "tiles.dat")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(owners); n == 0 || owners[0].Off != 0 || owners[n-1].End() != 2*4*8 {
		t.Fatalf("written runs %v, want two full slabs (%d bytes)", owners, 2*4*8)
	}
	// Both slabs' overlap columns hold the higher rank's data.
	for slab := int64(0); slab < 2; slab++ {
		off := slab*32 + 3 // row 0, overlapped column 3 of that slab
		i := slices.IndexFunc(owners, func(o index.Owned) bool { return o.Overlaps(interval.Extent{Off: off, Len: 1}) })
		if i < 0 || owners[i].Rank != 1 || !owners[i].ContainsExtent(interval.Extent{Off: off, Len: 2}) {
			t.Fatalf("slab %d overlap [%d,%d) in owners %v, want rank 1's", slab, off, off+2, owners)
		}
	}
}

func TestEmptyRankParticipatesInCollectives(t *testing.T) {
	// A rank whose buffer is empty must still join the collective
	// handshakes, or the others deadlock.
	fs := testFS()
	views := make([][2]int64, 3)
	_ = views
	run(t, 3, func(c *mpi.Comm) error {
		f, err := Open(c, fs, testMgr(), "empty.dat")
		if err != nil {
			return err
		}
		f.SetAtomicity(true)
		for _, strat := range []core.Strategy{core.Coloring{}, core.RankOrder{}} {
			if err := f.SetStrategy(strat); err != nil {
				return err
			}
			var n int64
			if c.Rank() != 1 { // rank 1 writes nothing
				n = 32
				f.SeekSet(int64(c.Rank()) * 16) // overlapping ranges
			}
			if err := f.WriteAll(n); err != nil {
				return err
			}
		}
		return f.Close()
	})
}

// TestEmptyCollectiveWriteKeepsPhaseAccounting pins the phase breakdown of a
// collective write in which every rank writes nothing: the handshake and
// the closing synchronization still take virtual time, and every
// nanosecond of it must land in some phase. (TwoPhase's zero-byte early
// return used to leave its handshake span open and run its barrier outside
// any span, so the whole write vanished from the breakdown.)
func TestEmptyCollectiveWriteKeepsPhaseAccounting(t *testing.T) {
	const p = 5
	for _, strat := range []core.Strategy{core.TwoPhase{}, core.Coloring{}, core.Coloring{UseSpans: true}, core.RankOrder{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			fs := testFS()
			rec := obs.NewRecorder(p, -1)
			elapsed := make([]sim.VTime, p)
			cfg := mpi.Config{
				Procs:        p,
				Net:          sim.LinearCost{Latency: 20 * sim.Microsecond, BytesPerSec: 100 << 20},
				SendOverhead: sim.Microsecond, RecvOverhead: sim.Microsecond,
			}
			_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
				f, err := Open(c, fs, nil, "empty.dat")
				if err != nil {
					return err
				}
				f.SetAtomicity(true)
				if err := f.SetStrategy(strat); err != nil {
					return err
				}
				f.SetEvents(rec)
				start := c.Now()
				if err := f.WriteAll(0); err != nil {
					return err
				}
				elapsed[c.Rank()] = c.Now() - start
				return f.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				var sum sim.VTime
				for _, ph := range trace.Phases {
					sum += sim.VTime(rec.Counter(r, trace.Counter(ph)))
				}
				if elapsed[r] == 0 {
					t.Fatalf("rank %d: the empty collective took no virtual time; the test measures nothing", r)
				}
				if sum != elapsed[r] {
					t.Errorf("rank %d: phases sum to %v, the write took %v", r, sum, elapsed[r])
				}
			}
			if rec.Metrics().Counter(trace.Counter(trace.PhaseHandshake)) == 0 {
				t.Error("no handshake time recorded")
			}
		})
	}
}

// intervalExt abbreviates extent construction.
func intervalExt(off, l int64) interval.Extent { return interval.Extent{Off: off, Len: l} }
