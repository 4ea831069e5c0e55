package mpiio

import (
	"errors"
	"fmt"
	"testing"

	"atomio/internal/core"
	"atomio/internal/datatype"
	"atomio/internal/interval"
	"atomio/internal/lock"
	"atomio/internal/mpi"
	"atomio/internal/pfs"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/verify"
	"atomio/internal/workload"
)

// testFS returns a small, fast, storing file system without caching.
func testFS() *pfs.FileSystem {
	return pfs.MustNew(pfs.Config{
		Servers:     2,
		StripeSize:  64,
		ServerModel: sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 16 << 20},
		ClientModel: sim.LinearCost{Latency: 2 * sim.Microsecond, BytesPerSec: 64 << 20},
		SegOverhead: sim.Microsecond,
		StoreData:   true,
	})
}

// cachingFS returns a storing file system with write-behind + read-ahead.
func cachingFS() *pfs.FileSystem {
	cfg := testFS().Config()
	cfg.Cache = pfs.CacheConfig{
		Enabled:         true,
		BlockSize:       64,
		ReadAheadBlocks: 1,
		WriteBehind:     true,
		MemModel:        sim.LinearCost{Latency: 100, BytesPerSec: 1 << 30},
	}
	return pfs.MustNew(cfg)
}

func testMgr() lock.Manager {
	return lock.NewCentral(lock.CentralConfig{MsgCost: 5 * sim.Microsecond, ServiceTime: 2 * sim.Microsecond})
}

// run executes body on procs ranks whose file systems and lock managers
// never make one rank wait for another; tests where they do use runOn.
func run(t *testing.T, procs int, body mpi.RankFunc) {
	t.Helper()
	if _, err := mpi.Run(mpi.Config{Procs: procs}, body); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// runOn executes body on the ranks of coord, an event-loop coordinator that
// the world shares with fs and mgr (nil for none), so ranks that contend for
// servers or locks block on one another.
func runOn(t *testing.T, coord sim.Coord, fs *pfs.FileSystem, mgr lock.Manager, body mpi.RankFunc) {
	t.Helper()
	fs.SetCoord(coord)
	if m, ok := mgr.(interface{ SetCoord(sim.Coord) }); ok {
		m.SetCoord(coord)
	}
	cfg := mpi.Config{Procs: coord.Actors(), Engine: des.New(), Coord: coord}
	if _, err := mpi.Run(cfg, body); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// writeColumnWise runs the paper's column-wise concurrent overlapping write
// with the given strategy and returns the per-rank views for verification:
// each rank's request, which is its view's stored tile, lent to the strategy.
func writeColumnWise(t *testing.T, fs *pfs.FileSystem, mgr lock.Manager, m, n, p, r int, strat core.Strategy) []interval.List {
	t.Helper()
	views := make([]interval.List, p)
	runOn(t, des.New().NewCoord(p), fs, mgr, func(c *mpi.Comm) error {
		piece, err := workload.ColumnWise(m, n, p, r, c.Rank())
		if err != nil {
			return err
		}
		f, err := Open(c, fs, mgr, "shared.dat")
		if err != nil {
			return err
		}
		if err := f.SetView(0, datatype.Byte, piece.Filetype); err != nil {
			return err
		}
		views[c.Rank()] = f.View().Extents(0, piece.BufBytes)
		if err := f.SetAtomicity(true); err != nil {
			return err
		}
		if strat != nil {
			if err := f.SetStrategy(strat); err != nil {
				return err
			}
		}
		buf := make([]byte, piece.BufBytes)
		verify.Fill(c.Rank(), buf)
		if err := f.WriteAll(buf); err != nil {
			return err
		}
		return f.Close()
	})
	return views
}

func TestAtomicityAllStrategiesColumnWise(t *testing.T) {
	// The repository's central claim: the paper's three strategies — and
	// the two-phase collective-buffering extension — all produce MPI
	// atomic results for the column-wise overlapping write.
	strategies := append(core.All(), core.TwoPhase{})
	for _, strat := range strategies {
		for _, p := range []int{2, 4, 8} {
			name := fmt.Sprintf("%s/P=%d", strat.Name(), p)
			t.Run(name, func(t *testing.T) {
				fs := testFS()
				views := writeColumnWise(t, fs, testMgr(), 16, 64, p, 4, strat)
				rep, err := verify.Check(fs, "shared.dat", views)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Atomic() {
					t.Fatalf("strategy %s violated atomicity: %v", strat.Name(), rep.Violations[0])
				}
				if rep.Atoms == 0 {
					t.Fatal("workload produced no overlaps; test is vacuous")
				}
			})
		}
	}
}

// TestStrategiesLeaveTheLentTileUnwritten: a rank's request is its view's
// stored tile, lent to the strategy and, through the view exchange, to every
// rank, so no strategy may write it. After a full cell of each of the five,
// every rank's tile still equals a fresh flattening of its filetype.
func TestStrategiesLeaveTheLentTileUnwritten(t *testing.T) {
	const m, n, p, r = 16, 64, 4, 4
	for _, strat := range []core.Strategy{core.Locking{}, core.Coloring{}, core.RankOrder{}, core.TwoPhase{}, core.ListIO{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			fs := testFS()
			if _, ok := strat.(core.ListIO); ok {
				fs = listioFS()
			}
			tiles := writeColumnWise(t, fs, testMgr(), m, n, p, r, strat)
			for rank, tile := range tiles {
				piece, err := workload.ColumnWise(m, n, p, r, rank)
				if err != nil {
					t.Fatal(err)
				}
				if want := interval.List(piece.Filetype.Flatten()); !tile.Equal(want) {
					t.Errorf("rank %d's tile after the cell is %v, want %v", rank, tile, want)
				}
			}
		})
	}
}

func TestAtomicityWithWriteBehindCache(t *testing.T) {
	// Same claim on a caching file system (sync/invalidate paths).
	for _, strat := range append(core.All(), core.TwoPhase{}) {
		t.Run(strat.Name(), func(t *testing.T) {
			fs := cachingFS()
			views := writeColumnWise(t, fs, testMgr(), 16, 64, 4, 4, strat)
			rep, err := verify.Check(fs, "shared.dat", views)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Atomic() {
				t.Fatalf("%s with cache: %v", strat.Name(), rep.Violations[0])
			}
		})
	}
}

func TestRankOrderingHighestRankWins(t *testing.T) {
	// §3.3.2: every contested byte must hold the highest covering rank's
	// data. The two-phase extension uses the same merge rule, so it must
	// satisfy the same property.
	for _, strat := range []core.Strategy{core.RankOrder{}, core.TwoPhase{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			fs := testFS()
			views := writeColumnWise(t, fs, nil, 8, 32, 4, 4, strat)
			rep, err := verify.Check(fs, "shared.dat", views)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Atomic() {
				t.Fatalf("violations: %v", rep.Violations)
			}
			for _, won := range rep.WinnerByRegion {
				max := -1
				for rank, v := range views {
					if v.ContainsOffset(won.Off) && rank > max {
						max = rank
					}
				}
				if won.Rank != max {
					t.Fatalf("region %v won by %d, want highest rank %d", won.Extent, won.Rank, max)
				}
			}
		})
	}
}

func TestColoringWithSpansStillAtomic(t *testing.T) {
	// The conservative span-based handshake over-approximates conflicts
	// (ablation A5) — it can only add colors, so atomicity must hold.
	fs := testFS()
	views := writeColumnWise(t, fs, nil, 16, 64, 4, 4, core.Coloring{UseSpans: true})
	rep, err := verify.Check(fs, "shared.dat", views)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Atomic() {
		t.Fatalf("span-based coloring violated atomicity: %v", rep.Violations)
	}
}

func TestRankOrderingReducesIOVolume(t *testing.T) {
	// Lower ranks surrender (P-1)*R*M bytes in total.
	const m, n, p, r = 8, 32, 4, 4
	fs := testFS()
	written := make([]int64, p)
	run(t, p, func(c *mpi.Comm) error {
		piece, _ := workload.ColumnWise(m, n, p, r, c.Rank())
		f, err := Open(c, fs, nil, "vol.dat")
		if err != nil {
			return err
		}
		f.SetView(0, datatype.Byte, piece.Filetype)
		f.SetAtomicity(true)
		f.SetStrategy(core.RankOrder{})
		buf := make([]byte, piece.BufBytes)
		if err := f.WriteAll(buf); err != nil {
			return err
		}
		written[c.Rank()] = f.Client().BytesWritten()
		return f.Close()
	})
	var total, viewTotal int64
	for rank := 0; rank < p; rank++ {
		piece, _ := workload.ColumnWise(m, n, p, r, rank)
		viewTotal += piece.BufBytes
		total += written[rank]
	}
	if want := viewTotal - int64((p-1)*r*m); total != want {
		t.Fatalf("ordering wrote %d bytes, want %d (saved %d)", total, want, viewTotal-want)
	}
}

func TestLockingRequiresLockManager(t *testing.T) {
	// On ENFS-like systems the locking strategy must fail loudly.
	fs := testFS()
	run(t, 2, func(c *mpi.Comm) error {
		piece, _ := workload.ColumnWise(8, 16, 2, 2, c.Rank())
		f, err := Open(c, fs, nil, "nolock.dat")
		if err != nil {
			return err
		}
		f.SetView(0, datatype.Byte, piece.Filetype)
		f.SetAtomicity(true)
		f.SetStrategy(core.Locking{})
		err = f.WriteAll(make([]byte, piece.BufBytes))
		if !errors.Is(err, core.ErrNoLockManager) {
			return fmt.Errorf("err = %v, want ErrNoLockManager", err)
		}
		return nil
	})
}

func TestDefaultStrategyDependsOnLockManager(t *testing.T) {
	fs := testFS()
	run(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, fs, testMgr(), "a")
		if err != nil {
			return err
		}
		if f.Strategy().Name() != "locking" {
			return fmt.Errorf("default with mgr = %s", f.Strategy().Name())
		}
		g, err := Open(c, fs, nil, "b")
		if err != nil {
			return err
		}
		if g.Strategy().Name() != "ordering" {
			return fmt.Errorf("default without mgr = %s", g.Strategy().Name())
		}
		return nil
	})
}

func TestFigure2AtomicVsNonAtomic(t *testing.T) {
	// The paper's Figure 2: two column-wise writers, 6 segments each.
	// Non-atomic mode with an adversarial schedule interleaves the
	// overlapped columns; atomic mode never does.
	const m, n, p, r = 6, 8, 2, 2

	// Part 1: non-atomic, zig-zag schedule -> interleaving. Each
	// segment write is admitted at its own virtual instant: row i is
	// written R0-then-R1 for even i, R1-then-R0 for odd i, so who wrote
	// the overlapped columns last alternates from row to row.
	fs := testFS()
	views := make([]interval.List, p)
	coord := des.New().NewCoord(p)
	runOn(t, coord, fs, nil, func(c *mpi.Comm) error {
		piece, _ := workload.ColumnWise(m, n, p, r, c.Rank())
		views[c.Rank()] = interval.List(piece.Filetype.Flatten())
		f, err := Open(c, fs, nil, "fig2.dat")
		if err != nil {
			return err
		}
		f.SetView(0, datatype.Byte, piece.Filetype)
		// MPI non-atomic mode.
		rank := c.Rank()
		f.Client().BeforeSegment = func(seg int) {
			turn := rank
			if seg%2 == 1 {
				turn = 1 - rank
			}
			coord.Await(rank, sim.Second*sim.VTime(1+2*seg+turn))
		}
		buf := make([]byte, piece.BufBytes)
		verify.Fill(c.Rank(), buf)
		if err := f.WriteAll(buf); err != nil {
			return err
		}
		f.Client().BeforeSegment = nil
		return f.Close()
	})
	rep, err := verify.Check(fs, "fig2.dat", views)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Atomic() {
		t.Fatalf("non-atomic mode under adversarial schedule should interleave (Figure 2)")
	}

	// Part 2: atomic mode (any strategy) under concurrent execution
	// never interleaves; covered exhaustively elsewhere, spot-check here.
	fs2 := testFS()
	views2 := writeColumnWise(t, fs2, testMgr(), m, n, p, r, core.Locking{})
	rep2, err := verify.Check(fs2, "shared.dat", views2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Atomic() {
		t.Fatalf("atomic mode interleaved: %v", rep2.Violations)
	}
}

func TestPerSegmentLockingViolatesMPIAtomicity(t *testing.T) {
	// §3.2: "Enforcing the atomicity of individual read()/write() calls
	// is not sufficient to enforce MPI atomicity." The per-segment
	// locking mode locks each row separately; with an adversarial
	// schedule the overlap interleaves even though every single write
	// was locked.
	// Each rank writes its column-wise piece as two half-height requests,
	// every contiguous row individually locked (PerSegment mode). A
	// barrier between the halves forces the schedule
	//   rank 0: top rows    | rank 1: bottom rows
	//   --- barrier ---
	//   rank 0: bottom rows | rank 1: top rows
	// so the overlap's top rows end up from rank 1 and its bottom rows
	// from rank 0 — every single write was locked, yet no serialization
	// order of the two requests explains the result.
	const m, n, p, r = 6, 8, 2, 2
	fs := testFS()
	mgr := testMgr()
	views := make([]interval.List, p)
	runOn(t, des.New().NewCoord(p), fs, mgr, func(c *mpi.Comm) error {
		piece, _ := workload.ColumnWise(m, n, p, r, c.Rank())
		views[c.Rank()] = interval.List(piece.Filetype.Flatten())
		f, err := Open(c, fs, mgr, "perseg.dat")
		if err != nil {
			return err
		}
		f.SetAtomicity(true)
		f.SetStrategy(core.Locking{PerSegment: true})

		top := datatype.NewSubarray([]int{m, n}, []int{m / 2, piece.Cols},
			[]int{0, piece.StartCol}, datatype.Byte)
		bottom := datatype.NewSubarray([]int{m, n}, []int{m / 2, piece.Cols},
			[]int{m / 2, piece.StartCol}, datatype.Byte)
		halves := []datatype.Datatype{top, bottom}
		if c.Rank() == 1 {
			halves[0], halves[1] = halves[1], halves[0]
		}
		buf := make([]byte, piece.BufBytes/2)
		verify.Fill(c.Rank(), buf)
		for _, half := range halves {
			if err := f.SetView(0, datatype.Byte, half); err != nil {
				return err
			}
			if err := f.WriteAll(buf); err != nil {
				return err
			}
		}
		return f.Close()
	})
	rep, err := verify.Check(fs, "perseg.dat", views)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Atomic() {
		t.Fatalf("per-segment locking should NOT satisfy MPI atomicity")
	}
	if len(rep.Violations) == 0 && rep.OrderViolation == nil {
		t.Fatal("expected an order violation")
	}
}
