package harness

import (
	"testing"

	"atomio/internal/pfs/scenario"
	"atomio/internal/platform"
)

// TestServersOverrideChangesModel pins that the server count is a real
// model parameter: with client affinity, one server serializes every rank
// and must be slower than eight.
func TestServersOverrideChangesModel(t *testing.T) {
	base := Experiment{
		Platform: platform.Cplant(),
		M:        64, N: 2048, Procs: 8, Overlap: 8,
		Pattern:  ColumnWise,
		Strategy: Methods(platform.Cplant())[0],
	}
	one := base
	one.Servers = 1
	many := base
	many.Servers = 8
	resOne, err := one.Run()
	if err != nil {
		t.Fatal(err)
	}
	resMany, err := many.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resOne.Makespan <= resMany.Makespan {
		t.Fatalf("1 server (%v) should be slower than 8 (%v)", resOne.Makespan, resMany.Makespan)
	}
	if len(resOne.ServerStats) != 1 || len(resMany.ServerStats) != 8 {
		t.Fatalf("stats lengths %d/%d, want 1/8", len(resOne.ServerStats), len(resMany.ServerStats))
	}
}

// TestScenarioExperiments runs one experiment per degraded scenario and
// checks the per-server statistics carry the perturbation's signature: a
// slow server's queue dominates, a hot server absorbs a skewed byte share,
// and a rebalance changes the server count.
func TestScenarioExperiments(t *testing.T) {
	prof := platform.Cplant()
	run := func(scen scenario.Profile) *Result {
		t.Helper()
		s := scen
		res, err := Experiment{
			Platform: prof,
			M:        64, N: 2048, Procs: 8, Overlap: 8,
			Pattern:  ColumnWise,
			Strategy: Methods(prof)[0],
			Scenario: &s,
		}.Run()
		if err != nil {
			t.Fatalf("%s: %v", scen.Name, err)
		}
		return res
	}

	healthy := run(scenario.Healthy())
	slow := run(scenario.SlowServer(0, 4))
	hot := run(scenario.HotSpot(0, prof.SimServers))
	rebal := run(scenario.Rebalance(3))

	if slow.Makespan <= healthy.Makespan {
		t.Fatalf("slow server should stretch the makespan: %v vs healthy %v",
			slow.Makespan, healthy.Makespan)
	}
	hs := SummarizeServerStats(healthy.ServerStats, healthy.Makespan)
	ss := SummarizeServerStats(slow.ServerStats, slow.Makespan)
	if ss.MaxOccupancy <= hs.MaxOccupancy {
		t.Fatalf("slow server occupancy %v should exceed healthy %v", ss.MaxOccupancy, hs.MaxOccupancy)
	}
	if got := SummarizeServerStats(hot.ServerStats, hot.Makespan).MaxByteShare; got <= hs.MaxByteShare {
		t.Fatalf("hot server byte share %v should exceed healthy %v", got, hs.MaxByteShare)
	}
	if len(rebal.ServerStats) != 3 {
		t.Fatalf("rebalance to 3 servers reported %d stats", len(rebal.ServerStats))
	}
}
