package runner

import (
	"bytes"
	"reflect"
	"testing"

	"atomio/internal/harness"
	"atomio/internal/sim/fault"
	"atomio/internal/verify"
)

// TestFleetGridDeterministic pins that the fleet is a pure function of
// (seed, cells): two generations agree cell by cell, and a different seed
// diverges.
func TestFleetGridDeterministic(t *testing.T) {
	a := FleetGrid(7, 40)
	b := FleetGrid(7, 40)
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("fleet sizes %d, %d, want 40", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("cell %d IDs diverge: %q vs %q", i, a[i].ID, b[i].ID)
		}
		if !reflect.DeepEqual(*a[i].Experiment.Faults, *b[i].Experiment.Faults) {
			t.Fatalf("cell %d scripts diverge:\n%+v\n%+v", i, a[i].Experiment.Faults, b[i].Experiment.Faults)
		}
	}
	c := FleetGrid(8, 40)
	same := 0
	for i := range a {
		if a[i].ID == c[i].ID {
			same++
		}
	}
	if same > 20 {
		t.Errorf("seeds 7 and 8 share %d/40 cell IDs; the seed barely matters", same)
	}
}

// TestFleetGridShape checks the structural invariants every fleet cell must
// carry: verification on, stored writers, two servers, a fault script
// with a positive lease, and the pinned negative control at cell 0.
func TestFleetGridShape(t *testing.T) {
	cells := FleetGrid(1, 30)
	neg := cells[0]
	if neg.Experiment.Recovery {
		t.Error("negative control has recovery on")
	}
	if neg.Experiment.Faults.Name != "server-outage" {
		t.Errorf("negative control script %q, want server-outage", neg.Experiment.Faults.Name)
	}
	if !reflect.DeepEqual(neg, NegativeControlCell()) {
		t.Error("cell 0 is not the pinned negative control")
	}
	seen := make(map[string]bool)
	for i, c := range cells {
		e := c.Experiment
		if !e.Verify {
			t.Errorf("cell %d (%s) does not verify content", i, c.ID)
		}
		if e.Servers != fleetServers {
			t.Errorf("cell %d (%s) has %d servers", i, c.ID, e.Servers)
		}
		if e.Faults == nil || (len(e.Faults.Events) > 0 && e.Faults.Lease <= 0 && i != 0) {
			t.Errorf("cell %d (%s) script %+v lacks a lease", i, c.ID, e.Faults)
		}
		if seen[c.ID] {
			t.Errorf("duplicate cell ID %s", c.ID)
		}
		seen[c.ID] = true
	}
}

// TestFleetRunAndGate runs a small fleet end to end: the gate must pass —
// which requires every recovery cell to heal and the negative control to
// tear — and the emitted records must carry fault, recovery and verdict
// columns through a CSV round trip.
func TestFleetRunAndGate(t *testing.T) {
	cells := FleetGrid(3, 10)
	results := Run(cells, Options{Workers: 4})
	if err := FleetGate(results); err != nil {
		for _, r := range results {
			if r.Result != nil {
				t.Logf("%s: %s", r.Cell.ID, r.Result.Verdict)
			}
		}
		t.Fatal(err)
	}
	if results[0].Result.Verdict != verify.Torn {
		t.Fatalf("negative control verdict %q, want torn", results[0].Result.Verdict)
	}

	recs := Records(results)
	for i, rec := range recs {
		if rec.Fault == "" || rec.Verdict == "" {
			t.Errorf("record %d (%s) missing fault/verdict: %+v", i, rec.ID, rec)
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, back) {
		t.Errorf("fleet CSV round trip mismatch:\n in=%+v\nout=%+v", recs, back)
	}
}

// TestFleetGateRejects feeds the gate hand-made outcomes it must refuse: a
// torn recovery cell, a missing verdict, and a fleet with no torn cell.
func TestFleetGateRejects(t *testing.T) {
	mk := func(recovery bool, verdict verify.Verdict) CellResult {
		cells := FleetGrid(1, 2)
		c := cells[1]
		c.Experiment.Recovery = recovery
		return CellResult{Cell: c, Result: &harness.Result{Verdict: verdict}}
	}
	if err := FleetGate([]CellResult{mk(true, verify.Torn)}); err == nil {
		t.Error("gate accepted a torn recovery cell")
	}
	if err := FleetGate([]CellResult{mk(false, "")}); err == nil {
		t.Error("gate accepted a cell with no verdict")
	}
	if err := FleetGate([]CellResult{mk(false, verify.Serializable)}); err == nil {
		t.Error("gate accepted a fleet with no torn cell")
	}
}

// TestShrinkDropsIrrelevantEvents starts from the negative control with two
// irrelevant lock-fault events appended and shrinks against "still torn":
// the extra events must fall away while the outage (the actual cause)
// survives.
func TestShrinkDropsIrrelevantEvents(t *testing.T) {
	cell := NegativeControlCell()
	script := *cell.Experiment.Faults
	script.Lease = fault.DefaultLease
	script.Events = append(append([]fault.Event(nil), script.Events...),
		fault.UnlockDupScript().Events...)
	script.Events = append(script.Events, fault.LockReorder().Events...)
	cell.Experiment.Faults = &script

	bad := func(r CellResult) bool {
		return r.Err == nil && r.Result.Verdict == verify.Torn
	}
	if !bad(runCell(cell)) {
		t.Fatal("augmented negative control is not torn; shrink has nothing to do")
	}
	shrunk := Shrink(cell, bad, 30)
	if got := len(shrunk.Experiment.Faults.Events); got != 1 {
		t.Errorf("shrunk script has %d events, want the outage alone: %+v",
			got, shrunk.Experiment.Faults.Events)
	}
	if shrunk.Experiment.Faults.Events[0].Kind != fault.ServerCrash {
		t.Errorf("surviving event %v is not the server crash", shrunk.Experiment.Faults.Events[0])
	}
	if !bad(runCell(shrunk)) {
		t.Error("shrunk cell no longer reproduces the torn verdict")
	}
	if shrunk.Experiment.Procs > cell.Experiment.Procs {
		t.Errorf("shrink grew the cell: %+v", shrunk.Experiment)
	}
}
