package core

import (
	"atomio/internal/interval"
)

// ListIO is the hypothetical fourth implementation the paper sketches in
// §3.2: "If POSIX atomicity is extended to lio_listio(), the MPI atomicity
// can be guaranteed by implementing the non-contiguous access on top of
// lio_listio()." Each rank submits its whole non-contiguous request as one
// atomic vectored call; the file system serializes conflicting calls
// internally, so no application-level locking or handshaking is needed.
//
// No file system of the paper's era provided this; it runs only on
// simulated file systems configured with pfs.Config.AtomicListIO and exists
// to quantify what the capability would buy (benchmark ablation A6).
type ListIO struct{}

// Name implements Strategy.
func (ListIO) Name() string { return "listio" }

// WriteAll implements Strategy.
func (ListIO) WriteAll(ctx *Context, buf []byte, req interval.List) error {
	return ctx.Client.WriteVAtomic(Segments(buf, req))
}

var _ Strategy = ListIO{}
