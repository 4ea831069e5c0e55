package mpi

import (
	"fmt"
	"sort"

	"atomio/internal/sim"
)

// Comm is a communicator: an ordered group of ranks with a private message
// context, so that traffic on one communicator can never be matched by
// receives on another. A Comm value is owned by a single rank and must not
// be shared between ranks.
type Comm struct {
	world *World
	ctx   int   // user-visible context id
	rank  int   // this process's rank within the communicator
	group []int // communicator rank -> world rank
	clock *sim.Clock

	internalSeq int // sequence number for internal collective tags
	sharedSeq   int // sequence number of Shared calls

	// curOp labels the collective currently executing on this rank so its
	// internal messages carry the collective's name in trace events. Only
	// the outermost collective sets it (Allreduce's inner Reduce+Bcast
	// traffic stays attributed to "allreduce"). Empty means point-to-point.
	curOp string
}

// beginOp marks the start of a collective for event attribution and returns
// the matching end function. Nested collectives keep the outermost label;
// with tracing off this is a nil test and a static closure.
func (c *Comm) beginOp(name string) func() {
	if c.world.cfg.Obs == nil || c.curOp != "" {
		return func() {}
	}
	c.curOp = name
	return func() { c.curOp = "" }
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

// WorldRank returns the world rank backing communicator rank r.
func (c *Comm) WorldRank(r int) int {
	c.checkRank(r)
	return c.group[r]
}

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= len(c.group) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, len(c.group)))
	}
}

func (c *Comm) checkTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: application tags must be non-negative, got %d", tag))
	}
}

// internalCtx is the context id used for collective traffic, disjoint from
// user point-to-point traffic on the same communicator.
func (c *Comm) internalCtx() int { return -c.ctx }

// Dup returns a communicator with the same group but a fresh context, so
// that libraries can communicate without colliding with application traffic.
// Dup is collective: every rank of the communicator must call it.
func (c *Comm) Dup() *Comm {
	// Rank 0 allocates the context and broadcasts it.
	var buf []byte
	if c.rank == 0 {
		buf = putInt64s(nil, int64(c.world.allocCtx()))
	}
	buf = c.Bcast(buf, 0)
	newCtx := int(getInt64s(buf, 1)[0])
	return &Comm{world: c.world, ctx: newCtx, rank: c.rank, group: c.group, clock: c.clock}
}

// Split partitions the communicator by color, ordering ranks within each new
// communicator by (key, old rank), exactly as MPI_Comm_split does. Split is
// collective. A negative color means "do not participate"; such ranks
// receive nil.
func (c *Comm) Split(color, key int) *Comm {
	// Exchange (color, key) from everybody.
	all := c.Allgather(putInt64s(nil, int64(color), int64(key)))

	type member struct{ color, key, oldRank int }
	members := make([]member, 0, len(all))
	for r, b := range all {
		v := getInt64s(b, 2)
		members = append(members, member{color: int(v[0]), key: int(v[1]), oldRank: r})
	}

	// Distinct non-negative colors in ascending order get contexts in a
	// deterministic order; rank 0 of the parent allocates and broadcasts.
	colorSet := map[int]bool{}
	for _, m := range members {
		if m.color >= 0 {
			colorSet[m.color] = true
		}
	}
	colors := make([]int, 0, len(colorSet))
	for col := range colorSet {
		colors = append(colors, col)
	}
	sort.Ints(colors)

	var ctxBuf []byte
	if c.rank == 0 {
		vals := make([]int64, len(colors))
		for i := range colors {
			vals[i] = int64(c.world.allocCtx())
		}
		ctxBuf = putInt64s(nil, vals...)
	}
	ctxBuf = c.Bcast(ctxBuf, 0)
	ctxs := getInt64s(ctxBuf, len(colors))

	if color < 0 {
		return nil
	}
	ctxIdx := sort.SearchInts(colors, color)
	newCtx := int(ctxs[ctxIdx])

	// Build my group, ordered by (key, old rank).
	var mine []member
	for _, m := range members {
		if m.color == color {
			mine = append(mine, m)
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].oldRank < mine[j].oldRank
	})
	group := make([]int, len(mine))
	newRank := -1
	for i, m := range mine {
		group[i] = c.group[m.oldRank]
		if m.oldRank == c.rank {
			newRank = i
		}
	}
	return &Comm{world: c.world, ctx: newCtx, rank: newRank, group: group, clock: c.clock}
}
