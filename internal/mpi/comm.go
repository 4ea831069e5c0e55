package mpi

import (
	"encoding/binary"
	"fmt"

	"atomio/internal/sim"
)

// Comm is a communicator: an ordered group of ranks with a private context,
// so that the collectives of one communicator can never match traffic or
// meetings of another. A Comm value is owned by a single rank and must not
// be shared between ranks.
type Comm struct {
	world *World
	ctx   int   // context id, unique within the World
	rank  int   // this process's rank within the communicator
	group []int // communicator rank -> world rank
	clock *sim.Clock

	tagSeq int // sequence number of collective calls, their message tag
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Clock returns the calling rank's virtual clock. Higher layers (the file
// system client, the lock managers) advance it as they charge I/O time.
func (c *Comm) Clock() *sim.Clock { return c.clock }

// Now returns the rank's current virtual time.
func (c *Comm) Now() sim.VTime { return c.clock.Now() }

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= len(c.group) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, len(c.group)))
	}
}

// Dup returns a communicator with the same group but a fresh context, so
// that libraries can communicate without colliding with application traffic.
// Dup is collective: every rank of the communicator must call it. The
// communicator comes back by value, for the caller to keep where it keeps
// its own per-rank state.
func (c *Comm) Dup() Comm {
	// Rank 0 allocates the context and broadcasts it, little-endian.
	var buf []byte
	if c.rank == 0 {
		buf = binary.LittleEndian.AppendUint64(nil, uint64(c.world.allocCtx()))
	}
	newCtx := int(binary.LittleEndian.Uint64(c.bcast(buf, 0)))
	return Comm{world: c.world, ctx: newCtx, rank: c.rank, group: c.group, clock: c.clock}
}
