package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// run executes body on procs ranks and returns the result.
func run(t *testing.T, procs int, body RankFunc) *Result {
	t.Helper()
	res, err := Run(Config{Procs: procs}, body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// otherEngine is an engine Run does not know: the event loop under another
// name, as the harness's schedule explorer wraps it.
type otherEngine struct{ des.Engine }

func (otherEngine) Name() string { return "other" }

// subCtx is the first context id subComm callers use: far above the ids
// Run and Dup allocate in any world of this suite, so never one of theirs.
const subCtx = 1 << 20

// subComm returns the calling rank's communicator over the world ranks in
// members, in that order (communicator rank i is world rank members[i]),
// under the fixed context id ctx — or nil when the caller is not a member.
// It is how tests build the permuted sub-communicators MPI_Comm_split would:
// every member must pass the same members and ctx, and no other
// communicator of the world may use ctx.
func subComm(c *Comm, members []int, ctx int) *Comm {
	me := c.group[c.rank]
	for i, w := range members {
		if w == me {
			return &Comm{world: c.world, ctx: ctx, rank: i, group: members, clock: c.clock}
		}
	}
	return nil
}

func TestRunSingleRank(t *testing.T) {
	res := run(t, 1, func(c *Comm) error {
		if c.Rank() != 0 || c.Size() != 1 {
			return fmt.Errorf("rank/size = %d/%d", c.Rank(), c.Size())
		}
		c.Barrier()
		return nil
	})
	if res.MaxTime != 0 {
		t.Fatalf("free single-rank run advanced time to %v", res.MaxTime)
	}
}

func TestRunRejectsBadProcs(t *testing.T) {
	if _, err := Run(Config{Procs: 0}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("expected error for Procs=0")
	}
}

// TestRunEngineAndCoord tables the ways a Config can name its engine and
// coordinator: Run supplies whichever is missing, and rejects up front the
// combinations that cannot work — a coordinator with no engine to drive it
// (which used to run the ranks on the wrong engine and die of a nil
// dereference inside rank 0), or one sized for a different world.
func TestRunEngineAndCoord(t *testing.T) {
	loop := des.New()
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"neither", Config{}, ""},
		{"engine only", Config{Engine: loop}, ""},
		{"another engine only", Config{Engine: otherEngine{loop}}, ""},
		{"engine and its coordinator", Config{Engine: loop, Coord: loop.NewCoord(2)}, ""},
		{"coordinator only", Config{Coord: loop.NewCoord(2)}, "mpi: Config.Coord set without Config.Engine"},
		{"coordinator of another size", Config{Engine: loop, Coord: loop.NewCoord(3)}, "coordinator sized for 3 actors"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Procs = 2
			var ran bool
			_, err := Run(tc.cfg, func(c *Comm) error {
				ran = true
				c.Barrier() // blocks: the ranks really go through the coordinator
				return nil
			})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Run error = %v, want %q", err, tc.wantErr)
			}
			if ran {
				t.Error("a rank ran before the configuration was rejected")
			}
		})
	}
}

func TestRunPropagatesError(t *testing.T) {
	_, err := Run(Config{Procs: 2}, func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	re, ok := err.(*RankError)
	if !ok || re.Rank != 1 {
		t.Fatalf("err = %v, want RankError{1}", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	_, err := Run(Config{Procs: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

// TestRunDeadlockReportsStall: a communication deadlock cannot hang Run.
// Once no rank can run, the engine reports the ranks still waiting on
// peers, and that stall is Run's error.
func TestRunDeadlockReportsStall(t *testing.T) {
	_, err := Run(Config{Procs: 2}, func(c *Comm) error {
		c.recv(1-c.Rank(), 0) // nobody sends: deadlock
		return nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "des: ") || !strings.Contains(err.Error(), "still waiting on peers") {
		t.Fatalf("err = %v, want the des stall report", err)
	}
}

// The tests from here to TestRecvTiming drive the mailbox through the
// package's own send and recv: the message layer under bcast.

func TestSendRecvBasic(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.send(1, 7, []byte("hello"))
		} else if data := c.recv(0, 7).data; !bytes.Equal(data, []byte("hello")) {
			return fmt.Errorf("data = %q", data)
		}
		return nil
	})
}

// TestSendLendsPayload: a message carries the sender's slice itself, so a
// send allocates nothing — Dup's broadcast of a context id once cost every
// rank but the root a copy of it.
func TestSendLendsPayload(t *testing.T) {
	const runs = 100
	buf := []byte("context!")
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if a := testing.AllocsPerRun(runs, func() { c.send(1, 0, buf) }); a != 0 {
				return fmt.Errorf("a send allocates %v objects, want 0", a)
			}
			return nil
		}
		for i := 0; i <= runs; i++ { // AllocsPerRun runs once more to warm up
			if data := c.recv(0, 0).data; &data[0] != &buf[0] {
				return fmt.Errorf("message %d is a copy of the sent payload", i)
			}
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.send(1, 1, []byte("one"))
			c.send(1, 2, []byte("two"))
		} else {
			// Receive out of send order by tag.
			d2 := c.recv(0, 2).data
			d1 := c.recv(0, 1).data
			if string(d1) != "one" || string(d2) != "two" {
				return fmt.Errorf("tag matching broken: %q %q", d1, d2)
			}
		}
		return nil
	})
}

func TestPerSenderFIFO(t *testing.T) {
	const n = 50
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.send(1, 3, EncodeInt64s(int64(i)))
			}
		} else {
			for i := 0; i < n; i++ {
				if got := DecodeInt64s(c.recv(0, 3).data)[0]; got != int64(i) {
					return fmt.Errorf("message %d arrived as %d", i, got)
				}
			}
		}
		return nil
	})
}

// TestSendrecvExchange pins the eager send pairwise exchange relies on:
// every rank sends before it receives, all at once, and none deadlocks.
func TestSendrecvExchange(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		p := c.Size()
		right, left := (c.Rank()+1)%p, (c.Rank()-1+p)%p
		c.send(right, 5, EncodeInt64s(int64(c.Rank())))
		if got := DecodeInt64s(c.recv(left, 5).data)[0]; got != int64(left) {
			return fmt.Errorf("got %d from left, want %d", got, left)
		}
		return nil
	})
}

func TestInvalidRankPanics(t *testing.T) {
	_, err := Run(Config{Procs: 1}, func(c *Comm) error {
		c.send(5, 0, nil)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 5 out of range") {
		t.Fatalf("err = %v, want the invalid-rank panic", err)
	}
}

// TestAbortUnblocksPeersAndReportsRootCause: ranks blocked in a receive
// that can never match are unwound at once by the failing rank's abort, and
// that rank's error is the one reported.
func TestAbortUnblocksPeersAndReportsRootCause(t *testing.T) {
	start := time.Now()
	_, err := Run(Config{Procs: 4}, func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("root cause")
		}
		c.recv(2, 0) // would deadlock without abort
		return nil
	})
	re, ok := err.(*RankError)
	if !ok || re.Rank != 2 {
		t.Fatalf("err = %v, want root-cause RankError from rank 2", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v; blocked ranks were not unwound", elapsed)
	}
}

func TestRecvTiming(t *testing.T) {
	// 1 KiB message over a 1 MiB/s link with 10µs latency: the receiver's
	// clock must land at sentAt + latency + 1024/2^20 s ≈ 986.6µs.
	cfg := Config{
		Procs:        2,
		Net:          sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 1 << 20},
		SendOverhead: sim.Microsecond,
		RecvOverhead: 2 * sim.Microsecond,
	}
	res, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.send(1, 0, make([]byte, 1024))
		} else {
			c.recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// sender: 1µs send overhead. receiver: max(0, 1µs + 10µs + 976.56µs) + 2µs.
	transfer := sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 1 << 20}.Cost(1024)
	want := sim.Microsecond + transfer + 2*sim.Microsecond
	if res.Times[1] != want {
		t.Fatalf("receiver clock = %v, want %v", res.Times[1], want)
	}
	if res.Times[0] != sim.Microsecond {
		t.Fatalf("sender clock = %v, want 1µs", res.Times[0])
	}
}
