package des

import (
	"reflect"
	"testing"

	"atomio/internal/sim"
)

// TestAwaitAtTheHeadRunsOn pins the fast path of Await: an announcement
// that would be the queue's earliest entry returns at once, pushing
// nothing, bumping no stamp and running no other actor, while one behind an
// earlier time, or behind an equal time with a lower id, yields.
func TestAwaitAtTheHeadRunsOn(t *testing.T) {
	s := newScheduler(2)
	var log []string
	// runsOn awaits (at, id), which must be the earliest entry: it checks
	// that the queue, the stamp and the log are as they were.
	runsOn := func(id int, at sim.VTime, why string) {
		queued, seq, logged := len(s.queue), s.seq[id], len(log)
		s.Await(id, at)
		if len(s.queue) != queued || s.seq[id] != seq || len(log) != logged {
			t.Errorf("Await(%d, %d) %s: queue %d → %d, seq %d → %d, %v ran in between; want it to run on",
				id, at, why, queued, len(s.queue), seq, s.seq[id], log[logged:])
		}
	}
	err := s.run(func(id int) {
		defer s.Done(id)
		switch id {
		case 0:
			log = append(log, "0a")
			runsOn(0, 0, "tied with actor 1's seed, lower id")
			s.Await(0, 10) // behind actor 1's seed at 0: yields
			log = append(log, "0b")
		case 1:
			log = append(log, "1a")
			s.Await(1, 10) // tied with actor 0 at 10, higher id: yields
			log = append(log, "1b")
			runsOn(1, 20, "on an empty queue")
			log = append(log, "1c")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"0a", "1a", "0b", "1b", "1c"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("actors ran in order %v, want %v", log, want)
	}
}
