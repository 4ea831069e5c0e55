package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"atomio/internal/core"
	"atomio/internal/datatype"
	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/mpi"
	"atomio/internal/obs"
	"atomio/internal/pfs"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/trace"
	"atomio/internal/verify"
	"atomio/internal/workload"
)

// stamp is rank's byte at buffer offset i: a buffer byte names its writer
// and its place, so a byte stored from the wrong buffer offset shows.
func stamp(rank int, i int64) byte {
	return byte((uint32(i)*2654435761 + uint32(rank)*40503) >> 24)
}

// TestWriteReadRoundTripThroughView writes position-stamped buffers through
// overlapping column-wise views with each of the five strategies, directly
// and through a write-behind cache, and reads them back through the same
// views. Every file byte must be the stamped byte some rank whose view
// covers it holds at that byte's place in its buffer — the highest such
// rank's under ordering and twophase, which give contested bytes to the
// highest writer — and every byte read back must be the file's byte at the
// place the view maps it to: the scatter and the gather must invert.
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
				fs, mgr := pfs.MustNew(cfg), testMgr()
				reqs, ins := make([]interval.List, p), make([][]byte, p)
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
					out := make([]byte, piece.BufBytes)
					for i := range out {
						out[i] = stamp(c.Rank(), int64(i))
					}
					if err := f.WriteAll(out); err != nil {
						return err
					}
					if err := f.Sync(); err != nil {
						return err
					}
					if err := f.SeekSet(0); err != nil {
						return err
					}
					in := make([]byte, piece.BufBytes)
					if err := f.ReadAll(in); err != nil {
						return err
					}
					reqs[c.Rank()], ins[c.Rank()] = f.View().Extents(0, piece.BufBytes), in
					return f.Close()
				})
				file, err := fs.Snapshot("rt.dat", interval.Extent{Off: 0, Len: m * n})
				if err != nil {
					t.Fatal(err)
				}
				// at[rank][x] is the buffer offset rank writes file byte x from, -1 for none.
				at := make([][]int64, p)
				for rank, req := range reqs {
					at[rank] = make([]int64, m*n)
					for x := range at[rank] {
						at[rank][x] = -1
					}
					var i int64
					for _, e := range req {
						for x := e.Off; x < e.End(); x++ {
							at[rank][x], i = i, i+1
						}
					}
				}
				highestWins := strat.Name() == "ordering" || strat.Name() == "twophase"
				for x, got := range file {
					var want []byte // the stamps got may be
					for rank := p - 1; rank >= 0; rank-- {
						if i := at[rank][x]; i >= 0 && (!highestWins || len(want) == 0) {
							want = append(want, stamp(rank, i))
						}
					}
					if len(want) == 0 || !bytes.Contains(want, []byte{got}) {
						t.Fatalf("file byte %d (row %d, column %d) = %#x, want one of %#x", x, x/n, x%n, got, want)
					}
				}
				for rank, in := range ins {
					for x, i := range at[rank] {
						if i >= 0 && in[i] != file[x] {
							t.Fatalf("rank %d read buffer byte %d = %#x, the file holds %#x at %d", rank, i, in[i], file[x], x)
						}
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
		if err := f.WriteAll(make([]byte, 8)); err != nil { // 2 etypes
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
		if err := f.WriteAll([]byte("abc")); err != nil {
			return err
		}
		if err := f.WriteAll([]byte("def")); err != nil {
			return err
		}
		return f.Close()
	})
	snap, err := fs.Snapshot("adv.dat", intervalExt(0, 6))
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "abcdef" {
		t.Fatalf("file = %q", snap)
	}
}

// TestNonAtomicWriteLeavesBufferToCaller pins the one place a blocking write
// returns before its bytes are flushed: a non-atomic write on a file system
// that stores data behind a write-behind cache. MPI lets the application
// reuse buf the moment the call returns, so what reaches the file at Close
// must be what buf held at the call, for the independent and the collective
// write alike.
func TestNonAtomicWriteLeavesBufferToCaller(t *testing.T) {
	fs := cachingFS()
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, fs, nil, "reuse.dat")
		if err != nil {
			return err
		}
		f.SetAtomicity(false)
		buf := []byte("first ")
		if err := f.Write(buf); err != nil {
			return err
		}
		copy(buf, "second")
		if err := f.WriteAll(buf); err != nil {
			return err
		}
		copy(buf, "XXXXXX")
		return f.Close()
	})
	snap, err := fs.Snapshot("reuse.dat", intervalExt(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "first second" {
		t.Fatalf("file = %q: a write-behind cache kept the caller's buffer past the write", snap)
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
		if err := f.WriteAll(make([]byte, 12)); err == nil {
			return fmt.Errorf("1.5-etype write accepted")
		}
		if err := f.WriteAll(make([]byte, 16)); err != nil {
			return err
		}
		return f.Close()
	})
}

// TestWriteAllSized pins the timing-only collective write: it is refused
// where the length is malformed; on a file system that stores nothing it
// moves the file pointer, grows the file and charges exactly what WriteAll
// charges for a buffer of that length; on one that stores data it keeps who
// wrote each byte, and a ReadAll of those bytes fails, naming them, instead
// of returning zeros.
func TestWriteAllSized(t *testing.T) {
	etype := datatype.Elem{Width: 8, Name: "double"}
	open := func(c *mpi.Comm, fs *pfs.FileSystem) (*File, error) {
		f, err := Open(c, fs, testMgr(), "sized.dat")
		if err != nil {
			return nil, err
		}
		if err := f.SetView(0, etype, datatype.NewSubarray([]int{4, 2}, []int{4, 1}, []int{0, 0}, etype)); err != nil {
			return nil, err
		}
		return f, f.SetAtomicity(true)
	}
	stored := testFS()
	_, err := mpi.Run(mpi.Config{Procs: 1}, func(c *mpi.Comm) error {
		f, err := open(c, stored)
		if err != nil {
			return err
		}
		if err := f.WriteAllSized(16); err != nil {
			return err
		}
		if err := f.SeekSet(0); err != nil {
			return err
		}
		buf := bytes.Repeat([]byte{0xff}, 16)
		err = f.ReadAll(buf)
		return fmt.Errorf("ReadAll of bytes written timing-only returned %v, read %x", err, buf)
	})
	if err == nil || !strings.Contains(err.Error(), "reaches [0,8), which was written without its bytes") {
		t.Errorf("ReadAll after a timing-only write on a storing file system: %v", err)
	}
	owners, _ := stored.Owners("sized.dat")
	if want := []index.Owned{{Extent: interval.Extent{Off: 0, Len: 8}}, {Extent: interval.Extent{Off: 16, Len: 8}}}; !reflect.DeepEqual(owners, want) {
		t.Errorf("timing-only write stored owners %#v, want %#v", owners, want)
	}

	cfg := testFS().Config()
	cfg.StoreData = false
	var sized, buffered sim.VTime
	run(t, 1, func(c *mpi.Comm) error {
		f, err := open(c, pfs.MustNew(cfg))
		if err != nil {
			return err
		}
		if err := f.WriteAllSized(12); err == nil || !strings.Contains(err.Error(), "whole number of etypes") {
			return fmt.Errorf("1.5-etype timing-only write: %v", err)
		}
		if err := f.WriteAllSized(-8); err == nil {
			return fmt.Errorf("negative timing-only write accepted")
		}
		if f.Tell() != 0 {
			return fmt.Errorf("refused writes moved the file pointer to %d", f.Tell())
		}
		if err := f.WriteAllSized(24); err != nil {
			return err
		}
		if f.Tell() != 3 || f.Client().BytesWritten() != 24 {
			return fmt.Errorf("after 24 bytes: pointer %d, written %d", f.Tell(), f.Client().BytesWritten())
		}
		sized = c.Now()
		return f.Close()
	})
	run(t, 1, func(c *mpi.Comm) error {
		f, err := open(c, pfs.MustNew(cfg))
		if err != nil {
			return err
		}
		if err := f.WriteAll(make([]byte, 24)); err != nil {
			return err
		}
		buffered = c.Now()
		return f.Close()
	})
	if sized == 0 || sized != buffered {
		t.Errorf("timing-only write finished at %v, buffered write at %v", sized, buffered)
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
			"WriteAll":      func() error { return f.WriteAll([]byte("x")) },
			"WriteAllSized": func() error { return f.WriteAllSized(1) },
			"ReadAll":       func() error { return f.ReadAll(make([]byte, 1)) },
			"SetView":       func() error { return f.SetView(0, datatype.Byte, datatype.Byte) },
			"SetAtomicity":  func() error { return f.SetAtomicity(true) },
			"SetStrategy":   func() error { return f.SetStrategy(core.RankOrder{}) },
			"Sync":          func() error { return f.Sync() },
			"SeekSet":       func() error { return f.SeekSet(0) },
			"Close":         func() error { return f.Close() },
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
		buf := make([]byte, 64)
		verify.Fill(c.Rank(), buf)
		if err := f.Write(buf); err != nil {
			return err
		}
		return f.Close()
	})
	snap, err := fs.Snapshot("indep.dat", intervalExt(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	first := snap[0]
	for i, b := range snap {
		if b != first {
			t.Fatalf("independent atomic writes interleaved at byte %d: %v", i, snap[:16])
		}
	}
	if first != verify.Marker(0) && first != verify.Marker(1) {
		t.Fatalf("foreign data %d", first)
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
		err = f.Write(make([]byte, 8))
		if !errors.Is(err, core.ErrNoLockManager) {
			return fmt.Errorf("err = %v, want ErrNoLockManager (paper §5)", err)
		}
		return f.Close()
	})
}

func TestAtomicReadSeesCommittedData(t *testing.T) {
	// Writer flushes under lock; reader's atomic read invalidates its
	// cache and takes a shared lock, so it must observe the write.
	fs := cachingFS()
	mgr := testMgr()
	runOn(t, des.New().NewCoord(2), fs, mgr, func(c *mpi.Comm) error {
		f, err := Open(c, fs, mgr, "rw.dat")
		if err != nil {
			return err
		}
		f.SetAtomicity(true)
		if c.Rank() == 0 {
			buf := bytes.Repeat([]byte{42}, 128)
			if err := f.Write(buf); err != nil {
				return err
			}
		}
		// Order the read after the write.
		c.Barrier()
		if c.Rank() == 1 {
			in := make([]byte, 128)
			if err := f.Read(in); err != nil {
				return err
			}
			for i, b := range in {
				if b != 42 {
					return fmt.Errorf("byte %d = %d, want 42", i, b)
				}
			}
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
		buf := make([]byte, 2*piece.BufBytes)
		verify.Fill(c.Rank(), buf)
		if err := f.WriteAll(buf); err != nil {
			return err
		}
		return f.Close()
	})
	size, err := fs.FileSize("tiles.dat")
	if err != nil {
		t.Fatal(err)
	}
	if size != 2*4*8 {
		t.Fatalf("file size = %d, want two full slabs (%d)", size, 2*4*8)
	}
	// Both slabs' overlap columns hold the higher rank's marker.
	for slab := int64(0); slab < 2; slab++ {
		off := slab*32 + 3 // row 0, overlapped column 3 of that slab
		snap, _ := fs.Snapshot("tiles.dat", intervalExt(off, 2))
		for _, b := range snap {
			if b != verify.Marker(1) {
				t.Fatalf("slab %d overlap byte = %d, want rank 1 marker", slab, b)
			}
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
			var buf []byte
			if c.Rank() != 1 { // rank 1 writes nothing
				buf = bytes.Repeat([]byte{byte(c.Rank() + 1)}, 32)
				f.SeekSet(int64(c.Rank()) * 16) // overlapping ranges
			}
			if err := f.WriteAll(buf); err != nil {
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
				if err := f.WriteAll(nil); err != nil {
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
