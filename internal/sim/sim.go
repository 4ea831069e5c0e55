// Package sim provides the conservative virtual-time engine underneath the
// parallel file-system and message-passing simulators.
//
// Every simulated actor (an MPI rank, an I/O server, a lock manager) carries
// a Clock holding its local virtual time. Interactions advance clocks with
// causally consistent rules:
//
//   - computing locally for duration d:   t' = t + d
//   - receiving a message sent at time s: t' = max(t, s + cost) (the receive
//     cannot complete before the send plus transfer cost)
//   - using a shared FCFS resource:       start = max(t, resource free time)
//
// Actors never read each other's clocks: an actor that needs a remote
// timestamp blocks (through a Coord, see engine.go) until the event
// producing it has happened, so timestamps computed this way never violate
// causality. The engine admits actions in (virtual time, actor id) order,
// which is what lets the whole repository produce stable bandwidth numbers
// on any host, including single-CPU machines, without measuring wall-clock
// time.
package sim

import (
	"fmt"
	"time"
)

// VTime is a point in virtual time, in nanoseconds since the start of the
// simulation. Durations are also expressed as VTime.
type VTime int64

// Common virtual durations.
const (
	Nanosecond  VTime = 1
	Microsecond VTime = 1000 * Nanosecond
	Millisecond VTime = 1000 * Microsecond
	Second      VTime = 1000 * Millisecond
)

// String formats the virtual time using time.Duration notation.
func (t VTime) String() string { return time.Duration(t).String() }

// Seconds returns the virtual time as a float64 number of seconds.
func (t VTime) Seconds() float64 { return float64(t) / float64(Second) }

// Clock is the local virtual clock of one simulated actor. A Clock is not
// safe for concurrent use; each actor owns exactly one and other actors see
// its value only through timestamps carried on messages.
type Clock struct {
	now VTime
}

// NewClock returns a clock starting at virtual time start.
func NewClock(start VTime) *Clock { return &Clock{now: start} }

// Now returns the current virtual time.
func (c *Clock) Now() VTime { return c.now }

// Advance moves the clock forward by d (which must not be negative).
func (c *Clock) Advance(d VTime) VTime {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %v", d))
	}
	c.now += d
	return c.now
}

// AdvanceTo moves the clock to t if t is later than the current time.
// It returns the (possibly unchanged) current time. Moving to an earlier
// time is a no-op: virtual clocks are monotonic.
func (c *Clock) AdvanceTo(t VTime) VTime {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// CostModel converts an operation size into a virtual duration.
type CostModel interface {
	// Cost returns the virtual time taken to move or process n bytes.
	Cost(n int64) VTime
}

// LinearCost is the standard latency+bandwidth cost model:
// Cost(n) = Latency + n/Bandwidth.
type LinearCost struct {
	// Latency is the fixed per-operation overhead.
	Latency VTime
	// BytesPerSec is the sustained throughput; zero means infinitely fast
	// transfer (only latency is charged).
	BytesPerSec int64
}

// Cost implements CostModel.
func (m LinearCost) Cost(n int64) VTime {
	c := m.Latency
	if m.BytesPerSec > 0 && n > 0 {
		c += VTime(float64(n) / float64(m.BytesPerSec) * float64(Second))
	}
	return c
}

// Free is a CostModel charging nothing, useful in tests.
type Free struct{}

// Cost implements CostModel.
func (Free) Cost(int64) VTime { return 0 }

// Resource is a shared, serially used facility (a disk head, an I/O server's
// service loop, a lock manager's request queue) that processes requests
// first-come-first-served in virtual time. It is not safe for concurrent
// use: the engine runs one actor at a time, and that is the only caller.
type Resource struct {
	name   string
	freeAt VTime
	busy   VTime // total busy time, for utilization reporting
	ops    int64
}

// NewResource returns a named idle resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Acquire books the resource for a request arriving at virtual time `at`
// needing `dur` of service. It returns the virtual start and completion
// times. The caller's clock should be advanced to the returned end time.
//
// Callers book in the order the engine admits them, (virtual time, actor
// id); for callers with identical virtual arrival times the aggregate
// completion time is order-independent.
func (r *Resource) Acquire(at, dur VTime) (start, end VTime) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative service time %v on %s", dur, r.name))
	}
	start = max(at, r.freeAt)
	end = start + dur
	r.freeAt = end
	r.busy += dur
	r.ops++
	return start, end
}

// FreeAt returns the virtual time at which the resource next becomes idle.
func (r *Resource) FreeAt() VTime {
	return r.freeAt
}

// Stats returns the number of operations served and total busy time.
func (r *Resource) Stats() (ops int64, busy VTime) {
	return r.ops, r.busy
}

// Pool is a set of identical parallel resources with a shared name prefix,
// e.g. the I/O servers of a parallel file system. Requests are directed to a
// specific member (by striping) or to the least-loaded member.
type Pool struct {
	members []*Resource
}

// NewPool creates a pool of n resources named prefix[0..n).
func NewPool(prefix string, n int) *Pool {
	if n <= 0 {
		panic("sim: pool size must be positive")
	}
	p := &Pool{members: make([]*Resource, n)}
	for i := range p.members {
		p.members[i] = NewResource(fmt.Sprintf("%s[%d]", prefix, i))
	}
	return p
}

// Size returns the number of members.
func (p *Pool) Size() int { return len(p.members) }

// Member returns member i.
func (p *Pool) Member(i int) *Resource { return p.members[i] }
