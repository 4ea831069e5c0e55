package des_test

import (
	"reflect"
	"strings"
	"testing"

	"atomio/internal/obs"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
)

// event is one admitted action, recorded while its actor runs.
type event struct {
	ID int
	T  sim.VTime
}

// TestSchedulerAdmitsInVirtualOrder checks that the global admission order
// is the merge of all actor timelines sorted by (time, id). This is a pure
// heap property, so one run is already deterministic; a few trials guard
// the seeding path anyway.
func TestSchedulerAdmitsInVirtualOrder(t *testing.T) {
	plans := [][]sim.VTime{
		{5, 40, 41},
		{10, 20, 30},
		{10, 11, 50},
		{1, 2, 60},
	}
	var want []event
	for id, plan := range plans {
		for _, tt := range plan {
			want = append(want, event{id, tt})
		}
	}
	for i := range want {
		for j := i + 1; j < len(want); j++ {
			if want[j].T < want[i].T || (want[j].T == want[i].T && want[j].ID < want[i].ID) {
				want[i], want[j] = want[j], want[i]
			}
		}
	}

	for trial := 0; trial < 5; trial++ {
		eng := des.New()
		coord := eng.NewCoord(len(plans))
		var got []event
		err := eng.Run(coord, len(plans), func(id int) {
			defer coord.Done(id)
			for _, tt := range plans[id] {
				coord.Await(id, tt)
				// Only one actor ever runs, so append order is admission
				// order and needs no mutex.
				got = append(got, event{id, tt})
			}
		})
		if err != nil {
			t.Fatalf("trial %d: run: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: admission order\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestSchedulerTieBreaksByID checks equal-time actions admit lower ids first.
func TestSchedulerTieBreaksByID(t *testing.T) {
	eng := des.New()
	coord := eng.NewCoord(3)
	var order []int
	err := eng.Run(coord, 3, func(id int) {
		defer coord.Done(id)
		coord.Await(id, 7)
		order = append(order, id)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("tie admitted in order %v", order)
	}
}

// TestSchedulerParkWake checks the park/wake handshake: a parked actor does
// not constrain admissions, and Wake's time bound orders its resumption.
func TestSchedulerParkWake(t *testing.T) {
	eng := des.New()
	coord := eng.NewCoord(3)
	var got []event
	err := eng.Run(coord, 3, func(id int) {
		defer coord.Done(id)
		switch id {
		case 0:
			coord.Await(0, 10)
			got = append(got, event{0, 10})
			// Wake the parked actor 2 with a bound far in the future; it
			// must still admit after actor 1's earlier action.
			coord.Wake(2, 100)
			coord.Await(0, 20)
			got = append(got, event{0, 20})
		case 1:
			coord.Await(1, 50)
			got = append(got, event{1, 50})
		case 2:
			// Park immediately; only actor 0's Wake can resume us.
			coord.Park(2)
			coord.Await(2, 100)
			got = append(got, event{2, 100})
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []event{{0, 10}, {0, 20}, {1, 50}, {2, 100}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("admission order\n got %v\nwant %v", got, want)
	}
}

// TestSchedulerStall checks that a parked actor nobody wakes is force-stopped
// with sim.StoppedError and reported as an engine-level stall.
func TestSchedulerStall(t *testing.T) {
	eng := des.New()
	coord := eng.NewCoord(2)
	var unwound bool
	err := eng.Run(coord, 2, func(id int) {
		defer coord.Done(id)
		if id == 0 {
			defer func() {
				if p := recover(); p != nil {
					var se sim.StoppedError
					if stopped, ok := p.(sim.StoppedError); !ok || stopped.Actor != 0 {
						t.Errorf("actor 0 unwound with %v, want %v", p, se)
					}
					unwound = true
				}
			}()
			coord.Park(0) // never woken
		}
	})
	if err == nil || !strings.Contains(err.Error(), "stalled: [0]") {
		t.Fatalf("run error = %v, want a stall report naming actor 0", err)
	}
	if !unwound {
		t.Fatal("stalled actor was not unwound with sim.StoppedError")
	}
}

// TestSchedulerRejectsForeignCoord checks Run validates its coordinator,
// bare or behind a tracer it unwraps.
func TestSchedulerRejectsForeignCoord(t *testing.T) {
	eng := des.New()
	for _, c := range []sim.Coord{sim.Solo{}, obs.Trace(sim.Solo{}, obs.NewRecorder(1, 0))} {
		if err := eng.Run(c, 1, func(int) {}); err == nil || !strings.Contains(err.Error(), "needs its own coordinator") {
			t.Fatalf("run on %T: error %v, want a foreign-coordinator rejection", c, err)
		}
	}
	if err := eng.Run(eng.NewCoord(3), 2, func(int) {}); err == nil {
		t.Fatal("run accepted a mis-sized coordinator")
	}
}

// TestSchedulerNotReusable checks a second Run on the same coordinator is an
// error rather than a silent rerun of retired actors.
func TestSchedulerNotReusable(t *testing.T) {
	eng := des.New()
	coord := eng.NewCoord(1)
	body := func(id int) { defer coord.Done(id); coord.Await(id, 1) }
	if err := eng.Run(coord, 1, body); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := eng.Run(coord, 1, body); err == nil {
		t.Fatal("second run on a used scheduler did not error")
	}
}

// TestEngineName pins the registry name the facade and -engine flag use.
func TestEngineName(t *testing.T) {
	if got := des.New().Name(); got != "eventloop" {
		t.Fatalf("Name() = %q, want %q", got, "eventloop")
	}
}
