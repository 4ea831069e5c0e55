package obs_test

import (
	"math/bits"
	"testing"

	"atomio/internal/obs"
	"atomio/internal/runner"
)

// TestGraphReadsLogReleasesPerGrant traces the P=4096 locking cell of the
// scaling grid, where every rank's lock overlaps its neighbours', and holds
// the dependency graph's grant lookups to O(grants · log releases) releases
// read. Matching each grant against every release read 4096 · 4096 = 16.8 M;
// the range-indexed lookup reads ~12 k.
func TestGraphReadsLogReleasesPerGrant(t *testing.T) {
	if testing.Short() {
		t.Skip("traces a P=4096 cell")
	}
	for _, c := range runner.ScalingGridTo(4096) {
		if c.Experiment.Procs != 4096 || c.Experiment.Strategy.Name() != "locking" {
			continue
		}
		e := c.Experiment
		e.TraceEvents = true
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		events := res.Events.Events()
		var grants, releases int
		for _, ev := range events {
			switch ev.Kind {
			case obs.KindLockGrant:
				grants++
			case obs.KindLockRelease:
				releases++
			}
		}
		read := obs.ReleasesExamined(events)
		t.Logf("%d grants, %d releases: %d releases read", grants, releases, read)
		if bound := grants * bits.Len(uint(releases)); grants == 0 || read > bound {
			t.Errorf("%d grants read %d of %d releases, want at most grants · log2(releases) = %d", grants, read, releases, bound)
		}
		return
	}
	t.Fatal("no P=4096 locking cell in the scaling grid")
}
