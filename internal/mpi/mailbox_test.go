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
