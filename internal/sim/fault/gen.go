package fault

import (
	"fmt"

	"atomio/internal/sim"
)

// Rand is a small xorshift64* generator, used instead of math/rand so the
// fault sweep's cell layout is pinned to this repository forever: fleet
// seeds stay reproducible even if the standard library's generator or its
// seeding behaviour changes, and nothing here can accidentally fall back
// to a time-seeded source.
type Rand struct{ state uint64 }

// NewRand returns a generator for the seed (seed 0 is remapped — xorshift
// has an all-zero fixed point).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next value of the xorshift64* sequence.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). It panics when n is not positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("fault: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// DefaultLease is the lock-lease duration generated scripts use: long
// enough that healthy unlocks (microseconds after the grant) never race
// it, short enough that a revoked range frees well inside a cell's
// makespan.
const DefaultLease = 50 * sim.Millisecond

// GenParams bound what Generate may produce for one cell.
type GenParams struct {
	// Servers is the cell's I/O-server count (crash events pick from it).
	Servers int
	// Ranks is the cell's process count.
	Ranks int
	// LockFaults permits lock-message faults (only meaningful when the
	// cell's strategy actually locks).
	LockFaults bool
	// WriterCrash permits mid-write rank crashes (only for strategies
	// with a crash hook: locking and two-phase).
	WriterCrash bool
	// Horizon bounds crash-window virtual times; it should be on the
	// order of the cell's expected makespan.
	Horizon sim.VTime
}

// Generate derives a fault script from the seed: one to three events drawn
// from the permitted classes. The same seed and params always produce the
// same script.
func Generate(seed uint64, p GenParams) Script {
	r := NewRand(seed)
	horizon := p.Horizon
	if horizon <= 0 {
		horizon = 100 * sim.Millisecond
	}
	kinds := []Kind{ServerCrash}
	if p.LockFaults {
		kinds = append(kinds, UnlockDrop, UnlockDup, LockDelay)
	}
	if p.WriterCrash {
		kinds = append(kinds, WriterCrash)
	}
	s := Script{
		Name:  fmt.Sprintf("gen-%d", seed),
		Lease: DefaultLease,
	}
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		switch kinds[r.Intn(len(kinds))] {
		case ServerCrash:
			from := sim.VTime(r.Intn(int(horizon)))
			until := sim.VTime(0) // down for good
			if r.Intn(2) == 1 {
				until = from + 1 + sim.VTime(r.Intn(int(horizon)))
			}
			s.Events = append(s.Events, Event{
				Kind:   ServerCrash,
				Server: r.Intn(p.Servers),
				From:   from,
				Until:  until,
			})
		case UnlockDrop:
			s.Events = append(s.Events, Event{
				Kind: UnlockDrop, Owner: r.Intn(p.Ranks), Op: r.Intn(2),
			})
		case UnlockDup:
			s.Events = append(s.Events, Event{
				Kind: UnlockDup, Owner: r.Intn(p.Ranks), Op: r.Intn(2),
			})
		case LockDelay:
			s.Events = append(s.Events, Event{
				Kind:  LockDelay,
				Owner: r.Intn(p.Ranks),
				Op:    r.Intn(2),
				Delay: sim.VTime(1 + r.Intn(int(horizon/4))),
			})
		case WriterCrash:
			s.Events = append(s.Events, Event{
				Kind: WriterCrash, Owner: r.Intn(p.Ranks), Segments: r.Intn(3),
			})
		}
	}
	return s
}

// ServerOutage is a named script: server 0 down from virtual time zero,
// never restarting — the classic torn-file negative control on a striped
// file system (every stripe routed to server 0 reads back as zeros).
func ServerOutage() Script {
	return Script{
		Name:   "server-outage",
		Lease:  DefaultLease,
		Events: []Event{{Kind: ServerCrash, Server: 0}},
	}
}

// ServerBlip is a named script: server 1 down for a 10 ms window early in
// the run, then back — the crash/restart case.
func ServerBlip() Script {
	return Script{
		Name:  "server-blip",
		Lease: DefaultLease,
		Events: []Event{{
			Kind:   ServerCrash,
			Server: 1,
			From:   1 * sim.Millisecond,
			Until:  11 * sim.Millisecond,
		}},
	}
}

// UnlockDropLease is a named script: rank 1's first unlock message is
// lost; the lease revokes the grant so waiters eventually proceed.
func UnlockDropLease() Script {
	return Script{
		Name:   "unlock-drop",
		Lease:  DefaultLease,
		Events: []Event{{Kind: UnlockDrop, Owner: 1, Op: 0}},
	}
}

// UnlockDupScript is a named script: rank 0's first unlock is delivered
// twice; the duplicate must be a no-op.
func UnlockDupScript() Script {
	return Script{
		Name:   "unlock-dup",
		Lease:  DefaultLease,
		Events: []Event{{Kind: UnlockDup, Owner: 0, Op: 0}},
	}
}

// LockReorder is a named script: rank 0's first lock request is delayed
// 5 ms, so requests issued later by other ranks reach the manager first.
func LockReorder() Script {
	return Script{
		Name:   "lock-reorder",
		Lease:  DefaultLease,
		Events: []Event{{Kind: LockDelay, Owner: 0, Op: 0, Delay: 5 * sim.Millisecond}},
	}
}

// WriterCrashEarly is a named script: rank 1 dies after one completed
// write segment of its collective write.
func WriterCrashEarly() Script {
	return Script{
		Name:   "writer-crash",
		Lease:  DefaultLease,
		Events: []Event{{Kind: WriterCrash, Owner: 1, Segments: 1}},
	}
}
