package mpiio

import (
	"errors"
	"fmt"
	"testing"

	"atomio/internal/core"
	"atomio/internal/datatype"
	"atomio/internal/mpi"
	"atomio/internal/pfs"
	"atomio/internal/verify"
	"atomio/internal/workload"
)

func listioFS() *pfs.FileSystem {
	cfg := testFS().Config()
	cfg.AtomicListIO = true
	return fsOf(cfg)
}

func TestListIOStrategyIsAtomic(t *testing.T) {
	// The §3.2 extension: one atomic vectored call per rank satisfies MPI
	// atomicity with no locks and no handshake.
	fs := listioFS()
	views := writeColumnWise(t, fs, nil, 16, 64, 4, 4, core.ListIO{})
	rep, err := verify.Check(fs, "shared.dat", views)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Atomic() {
		t.Fatalf("listio violated atomicity: %v", rep.Violations)
	}
	if rep.Atoms == 0 {
		t.Fatal("vacuous: no overlap atoms")
	}
}

func TestListIORequiresCapability(t *testing.T) {
	fs := testFS() // no AtomicListIO
	run(t, 2, func(c *mpi.Comm) error {
		piece, _ := workload.ColumnWise(8, 16, 2, 2, c.Rank())
		f, err := Open(c, fs, nil, "cap.dat")
		if err != nil {
			return err
		}
		f.SetView(0, datatype.Byte, piece.Filetype)
		f.SetAtomicity(true)
		f.SetStrategy(core.ListIO{})
		err = f.WriteAll(piece.BufBytes)
		if !errors.Is(err, pfs.ErrNoAtomicListIO) {
			return fmt.Errorf("err = %v, want ErrNoAtomicListIO", err)
		}
		return nil
	})
}

func TestListIOSerializesInVirtualTime(t *testing.T) {
	// Two overlapping atomic vectored writes must not overlap in virtual
	// time: the later one's completion reflects queueing behind the first.
	fs := listioFS()
	var times [2]int64
	run(t, 2, func(c *mpi.Comm) error {
		piece, _ := workload.ColumnWise(64, 256, 2, 8, c.Rank())
		f, err := Open(c, fs, nil, "ser.dat")
		if err != nil {
			return err
		}
		f.SetView(0, datatype.Byte, piece.Filetype)
		f.SetAtomicity(true)
		f.SetStrategy(core.ListIO{})
		if err := f.WriteAll(piece.BufBytes); err != nil {
			return err
		}
		times[c.Rank()] = int64(c.Now())
		return f.Close()
	})
	// One of the two completed roughly twice as late as the other.
	early, late := times[0], times[1]
	if early > late {
		early, late = late, early
	}
	if late < early*3/2 {
		t.Fatalf("atomic listio calls overlapped in virtual time: %d vs %d", early, late)
	}
}

func TestByNameIncludesListIO(t *testing.T) {
	s, err := core.ByName("listio")
	if err != nil || s.Name() != "listio" {
		t.Fatalf("ByName(listio) = %v, %v", s, err)
	}
}
