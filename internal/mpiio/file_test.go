package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"atomio/internal/core"
	"atomio/internal/datatype"
	"atomio/internal/interval"
	"atomio/internal/mpi"
	"atomio/internal/pfs"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/trace"
	"atomio/internal/verify"
	"atomio/internal/workload"
)

func TestWriteReadRoundTripThroughView(t *testing.T) {
	// Write through a column-wise view and read the same bytes back
	// through the same view: the scatter/gather must invert exactly.
	fs := testFS()
	run(t, 4, func(c *mpi.Comm) error {
		piece, _ := workload.ColumnWise(16, 64, 4, 4, c.Rank())
		f, err := Open(c, fs, testMgr(), "rt.dat")
		if err != nil {
			return err
		}
		f.SetView(0, datatype.Byte, piece.Filetype)
		f.SetAtomicity(true)
		f.SetStrategy(core.RankOrder{})
		out := make([]byte, piece.BufBytes)
		for i := range out {
			out[i] = byte(c.Rank()*50 + i%50)
		}
		if err := f.WriteAll(out); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		// Rewind and read back; with rank ordering the surrendered
		// bytes hold the higher rank's data, so compare only the bytes
		// this rank kept.
		if err := f.SeekSet(0); err != nil {
			return err
		}
		in := make([]byte, piece.BufBytes)
		if err := f.ReadAll(in); err != nil {
			return err
		}
		// Check a definitely-owned region: the columns this rank kept
		// under rank ordering (interior columns, away from both the
		// higher neighbour's claim and the lower neighbour's overlap).
		for row := 0; row < piece.Rows; row++ {
			for col := 4; col < piece.Cols-4; col++ {
				idx := row*piece.Cols + col
				if in[idx] != out[idx] {
					return fmt.Errorf("rank %d byte (%d,%d): got %d want %d",
						c.Rank(), row, col, in[idx], out[idx])
				}
			}
		}
		return f.Close()
	})
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
// where bytes are needed or the length is malformed, and on a file system
// that stores nothing it moves the file pointer, grows the file and charges
// exactly what WriteAll charges for a buffer of that length.
func TestWriteAllSized(t *testing.T) {
	etype := datatype.Elem{Width: 8, Name: "double"}
	open := func(c *mpi.Comm, fs *pfs.FileSystem) (*File, error) {
		f, err := Open(c, fs, testMgr(), "sized.dat")
		if err != nil {
			return nil, err
		}
		if err := f.SetView(0, etype, datatype.NewVector(4, 1, 2, etype)); err != nil {
			return nil, err
		}
		return f, f.SetAtomicity(true)
	}
	run(t, 1, func(c *mpi.Comm) error {
		f, err := open(c, testFS())
		if err != nil {
			return err
		}
		if err := f.WriteAllSized(16); err == nil || !strings.Contains(err.Error(), "stores data") {
			return fmt.Errorf("timing-only write on a storing file system: %v", err)
		}
		return f.Close()
	})

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
	phases := []trace.Phase{trace.PhaseHandshake, trace.PhaseLockWait, trace.PhaseTransfer,
		trace.PhaseSyncWait, trace.PhaseExchange}
	for _, strat := range []core.Strategy{core.TwoPhase{}, core.Coloring{}, core.Coloring{UseSpans: true}, core.RankOrder{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			fs := testFS()
			rec := trace.NewRecorder(p).Ensure(phases...)
			elapsed := make([]sim.VTime, p)
			cfg := mpi.Config{
				Procs: p, Timeout: 60 * time.Second,
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
				f.SetTrace(rec)
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
				for _, ph := range phases {
					sum += rec.Rank(r, ph)
				}
				if elapsed[r] == 0 {
					t.Fatalf("rank %d: the empty collective took no virtual time; the test measures nothing", r)
				}
				if sum != elapsed[r] {
					t.Errorf("rank %d: phases sum to %v, the write took %v", r, sum, elapsed[r])
				}
			}
			if rec.Total(trace.PhaseHandshake) == 0 {
				t.Error("no handshake time recorded")
			}
		})
	}
}

// intervalExt abbreviates extent construction.
func intervalExt(off, l int64) interval.Extent { return interval.Extent{Off: off, Len: l} }
