package mpiio

// File calls only the tests make: the atomic-mode query and the file
// pointer's MPI_File_get_position / MPI_File_seek(MPI_SEEK_SET) pair.

import "fmt"

// Atomicity reports whether atomic mode is on.
func (f *File) Atomicity() bool { return f.atomic }

// Tell returns the file pointer in etype units.
func (f *File) Tell() int64 { return f.pos / f.view.Etype.Size() }

// SeekSet positions the file pointer at off etype units into the view.
func (f *File) SeekSet(off int64) error {
	if f.closed {
		return ErrClosed
	}
	if off < 0 {
		return fmt.Errorf("mpiio: negative seek offset %d", off)
	}
	f.pos = off * f.view.Etype.Size()
	return nil
}
