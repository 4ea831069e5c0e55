package mpi

import (
	"strings"
	"testing"

	"atomio/internal/sim"
)

// TestSoloMailbox pins the no-engine default of a mailbox outside any
// world: a message that is already queued is matched on the caller's own
// goroutine, and a receive that would have to sleep fails at once — no
// sender exists that could ever wake it — instead of hanging.
func TestSoloMailbox(t *testing.T) {
	m := &mailbox{coord: sim.Solo{}, net: sim.Free{}}
	m.put(message{ctx: 1, src: 3, tag: 7, data: []byte("queued")})
	if msg := m.match(1, 3, 7); string(msg.data) != "queued" || msg.src != 3 {
		t.Fatalf("match returned %+v", msg)
	}
	if n := len(m.queue); n != 0 {
		t.Fatalf("%d messages still queued", n)
	}
	defer func() {
		if p, _ := recover().(string); !strings.Contains(p, "blocking with no engine") {
			t.Errorf("match on an empty mailbox with no engine: recovered %q, want the Solo panic", p)
		}
	}()
	m.match(1, 3, 7)
	t.Error("match on an empty mailbox with no engine returned")
}

// TestPutIntoEmptyMailboxAllocatesNothing pins the mailbox's inline first
// slot: a queue that never holds two messages at once, like every rank's
// during Dup's broadcast, lives in the mailbox, so a put into an empty
// mailbox allocates nothing. Each put goes to a fresh mailbox.
func TestPutIntoEmptyMailboxAllocatesNothing(t *testing.T) {
	const runs = 100
	boxes := make([]mailbox, runs+1) // AllocsPerRun runs once more to warm up
	for i := range boxes {
		boxes[i] = mailbox{coord: sim.Solo{}, net: sim.Free{}}
	}
	msg := message{ctx: 1, src: 3, tag: 7, data: []byte("queued")}
	next := 0
	put := func() {
		boxes[next].put(msg)
		next++
	}
	if a := testing.AllocsPerRun(runs, put); a != 0 {
		t.Errorf("a put into an empty mailbox allocates %v objects, want 0", a)
	}
	if got := boxes[runs].match(1, 3, 7); string(got.data) != "queued" {
		t.Errorf("match returned %+v", got)
	}
}
