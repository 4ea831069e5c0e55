// Package fault defines deterministic failure injection for the
// simulation: seeded scripts of fault events whose effects are pure
// functions of virtual time and per-actor operation counts, never of host
// scheduling. A server crash is a virtual-time drop window — any write
// routed to that server while the window is open is discarded and its
// extents recorded as damage; a lock fault fires on the owner's n-th lock
// or unlock operation (program order, which is deterministic per rank); a
// writer crash kills a rank after a fixed number of write segments. Because
// every decision depends only on virtual values, a faulted run is exactly
// as reproducible as a healthy one: same seed, same verdict.
//
// The package deliberately has no "at wall moment t, mutate state" hook:
// host time is not part of the model, so any trigger-at-moment mutation
// would make a run depend on the host. "Server s loses
// its unsynced chunk store when it crashes" is modeled as a drop window
// opening at virtual time zero (the bytes were never durable), not as a
// retroactive wipe.
package fault

import (
	"fmt"
	"slices"

	"atomio/internal/sim"
)

// Kind enumerates the fault-event classes.
type Kind int

const (
	// ServerCrash opens a drop window on one I/O server: writes routed to
	// it while the window is open are discarded (no bytes stored, no
	// service booked) and their extents recorded as damage. Until==0 means
	// the server never restarts.
	ServerCrash Kind = iota
	// UnlockDrop loses the owner's op-th unlock message. With a lease the
	// grant is revoked when the lease expires; without one the lock is
	// held forever and the run stalls (the event-loop engine detects this
	// at teardown).
	UnlockDrop
	// UnlockDup duplicates the owner's op-th unlock message: the release
	// is delivered twice. Managers must treat the second copy as a no-op.
	UnlockDup
	// LockDelay delays the owner's op-th lock request by Delay of virtual
	// time — the message-reorder fault: a later-issued request from
	// another rank can reach the manager first.
	LockDelay
	// WriterCrash kills rank Owner after Segments completed write
	// segments of a collective write: the remainder of its data is never
	// written and its extents are recorded as damage.
	WriterCrash
)

// String names the kind the way scripts and records spell it.
func (k Kind) String() string {
	switch k {
	case ServerCrash:
		return "server-crash"
	case UnlockDrop:
		return "unlock-drop"
	case UnlockDup:
		return "unlock-dup"
	case LockDelay:
		return "lock-delay"
	case WriterCrash:
		return "writer-crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one fault. Which fields matter depends on Kind.
type Event struct {
	Kind Kind
	// Server is the crashed I/O server (ServerCrash).
	Server int
	// From and Until bound the drop window in virtual time (ServerCrash);
	// Until==0 leaves the server down for the rest of the run.
	From, Until sim.VTime
	// Owner is the faulted rank (lock faults, WriterCrash).
	Owner int
	// Op is the owner's operation index the fault fires on: the op-th
	// lock request (LockDelay) or the op-th unlock (UnlockDrop,
	// UnlockDup), counted per owner in program order from zero.
	Op int
	// Delay is the added virtual latency (LockDelay).
	Delay sim.VTime
	// Segments is how many write segments the rank completes before
	// dying (WriterCrash).
	Segments int
}

// String renders the event compactly for cell records and repro output.
func (e Event) String() string {
	switch e.Kind {
	case ServerCrash:
		if e.Until == 0 {
			return fmt.Sprintf("%s(s%d@%d-)", e.Kind, e.Server, int64(e.From))
		}
		return fmt.Sprintf("%s(s%d@%d-%d)", e.Kind, e.Server, int64(e.From), int64(e.Until))
	case UnlockDrop, UnlockDup:
		return fmt.Sprintf("%s(r%d#%d)", e.Kind, e.Owner, e.Op)
	case LockDelay:
		return fmt.Sprintf("%s(r%d#%d+%d)", e.Kind, e.Owner, e.Op, int64(e.Delay))
	case WriterCrash:
		return fmt.Sprintf("%s(r%d@seg%d)", e.Kind, e.Owner, e.Segments)
	default:
		return e.Kind.String()
	}
}

// Script is a named set of fault events plus the lock-lease duration that
// bounds how long a dropped unlock can wedge its byte range. Lease==0
// disables revocation: a dropped unlock then stalls the run (only the
// teardown regression tests want that).
type Script struct {
	Name   string
	Lease  sim.VTime
	Events []Event
}

// String renders the script as "name[ev ev ...]".
func (s Script) String() string {
	out := s.Name + "["
	for i, e := range s.Events {
		if i > 0 {
			out += " "
		}
		out += e.String()
	}
	return out + "]"
}

// Injector answers fault queries during a run. Build one per run with New;
// all methods are pure functions of the precomputed script, so a single
// injector may be shared by every actor without synchronization.
type Injector struct {
	script      Script
	crash       []Event // the drop windows, in script order
	lockDelay   map[opKey]sim.VTime
	unlockDrop  map[opKey]bool
	unlockDup   map[opKey]bool
	writerCrash map[int]int // rank → completed segments
}

type opKey struct{ owner, op int }

// New precomputes lookup tables for the script's events.
func New(s Script) *Injector {
	in := &Injector{
		script:      s,
		lockDelay:   make(map[opKey]sim.VTime),
		unlockDrop:  make(map[opKey]bool),
		unlockDup:   make(map[opKey]bool),
		writerCrash: make(map[int]int),
	}
	for _, e := range s.Events {
		switch e.Kind {
		case ServerCrash:
			in.crash = append(in.crash, e)
		case LockDelay:
			in.lockDelay[opKey{e.Owner, e.Op}] += e.Delay
		case UnlockDrop:
			in.unlockDrop[opKey{e.Owner, e.Op}] = true
		case UnlockDup:
			in.unlockDup[opKey{e.Owner, e.Op}] = true
		case WriterCrash:
			in.writerCrash[e.Owner] = e.Segments
		}
	}
	return in
}

// Lease returns the script's lock-lease duration.
func (in *Injector) Lease() sim.VTime { return in.script.Lease }

// ServerDropped reports whether a write routed to server at virtual time
// at falls inside one of the server's drop windows.
func (in *Injector) ServerDropped(server int, at sim.VTime) bool {
	return slices.ContainsFunc(in.crash, func(w Event) bool { return w.Server == server && w.open(at) })
}

// ServerDownAt reports whether any server's drop window is open at virtual
// time at: false on every instant of a script that crashes no server.
func (in *Injector) ServerDownAt(at sim.VTime) bool {
	return slices.ContainsFunc(in.crash, func(w Event) bool { return w.open(at) })
}

// open reports whether the drop window of the server crash w covers at.
func (w Event) open(at sim.VTime) bool { return at >= w.From && (w.Until == 0 || at < w.Until) }

// LockDelay returns the added virtual latency of the owner's op-th lock
// request (zero when unfaulted).
func (in *Injector) LockDelay(owner, op int) sim.VTime {
	return in.lockDelay[opKey{owner, op}]
}

// UnlockDropped reports whether the owner's op-th unlock message is lost.
func (in *Injector) UnlockDropped(owner, op int) bool {
	return in.unlockDrop[opKey{owner, op}]
}

// UnlockDuplicated reports whether the owner's op-th unlock message is
// delivered twice.
func (in *Injector) UnlockDuplicated(owner, op int) bool {
	return in.unlockDup[opKey{owner, op}]
}

// WriterCrash reports whether the rank crashes mid-write and after how
// many completed write segments.
func (in *Injector) WriterCrash(rank int) (segments int, crashed bool) {
	segments, crashed = in.writerCrash[rank]
	return segments, crashed
}

// HasLockFaults reports whether the script carries any lock-message
// faults — the signal for wrapping the lock manager.
func (in *Injector) HasLockFaults() bool {
	return len(in.lockDelay) > 0 || len(in.unlockDrop) > 0 || len(in.unlockDup) > 0
}
