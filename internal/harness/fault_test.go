package harness

import (
	"reflect"
	"testing"

	"atomio/internal/core"
	"atomio/internal/platform"
	"atomio/internal/sim/fault"
	"atomio/internal/verify"
)

// builtinScripts are the named fault scripts, in registration order.
func builtinScripts() []fault.Script {
	return []fault.Script{
		fault.ServerOutage(), fault.ServerBlip(), fault.UnlockDropLease(),
		fault.UnlockDupScript(), fault.LockReorder(), fault.WriterCrashEarly(),
	}
}

// faultExperiment is the base cell the end-to-end fault tests perturb: a
// small column-wise overlapping write on Origin2000 with content checking.
// The strategy pool is the platform's methods plus two-phase (which
// Methods omits); an unknown name is a test bug, not a silent fallback.
func faultExperiment(strategy string) Experiment {
	pool := append(Methods(platform.Origin2000()), core.TwoPhase{})
	var strat core.Strategy
	for _, s := range pool {
		if s.Name() == strategy {
			strat = s
		}
	}
	if strat == nil {
		panic("faultExperiment: unknown strategy " + strategy)
	}
	return Experiment{
		Platform: platform.Origin2000(),
		M:        32,
		N:        512,
		Procs:    4,
		Overlap:  4,
		Pattern:  ColumnWise,
		Strategy: strat,
		Servers:  2,
		Verify:   true,
	}
}

// TestFaultServerOutageTornWithoutRecovery is the fleet's negative control
// run directly: a server down from t=0 with no write-ahead log must leave a
// torn file — the stripes it owned read as lost data.
func TestFaultServerOutageTornWithoutRecovery(t *testing.T) {
	e := faultExperiment("locking")
	script := fault.ServerOutage()
	e.Faults = &script
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != verify.Torn {
		t.Fatalf("verdict = %q, want %q (report %+v)", res.Verdict, verify.Torn, res.Report)
	}
	if res.Replayed != nil {
		t.Fatalf("replayed = %v without recovery", res.Replayed)
	}
}

// TestFaultServerOutageRecovers turns the write-ahead log on for the same
// outage: replay must heal the file to a serializable state and report
// which ranks it replayed.
func TestFaultServerOutageRecovers(t *testing.T) {
	for _, strategy := range []string{"locking", "twophase"} {
		t.Run(strategy, func(t *testing.T) {
			e := faultExperiment(strategy)
			script := fault.ServerOutage()
			e.Faults = &script
			e.Recovery = true
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != verify.RecoveredSerializable {
				t.Fatalf("verdict = %q, want %q (report %+v)", res.Verdict, verify.RecoveredSerializable, res.Report)
			}
			if len(res.Replayed) == 0 {
				t.Fatal("recovery reported no replayed ranks")
			}
		})
	}
}

// TestFaultLockFaultsStaySerializable injects every lock-message fault
// class against the locking strategy: the lease-revocation path must keep
// the outcome serializable with no replay needed.
func TestFaultLockFaultsStaySerializable(t *testing.T) {
	scripts := []fault.Script{fault.UnlockDropLease(), fault.UnlockDupScript(), fault.LockReorder()}
	for _, script := range scripts {
		script := script
		t.Run(script.Name, func(t *testing.T) {
			e := faultExperiment("locking")
			e.Faults = &script
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != verify.Serializable {
				t.Fatalf("verdict = %q, want %q (report %+v)", res.Verdict, verify.Serializable, res.Report)
			}
		})
	}
}

// TestFaultWriterCrashRecovers kills one writer mid-request under both
// strategies that commit data directly: without the log the file is torn,
// with it the intents replay to a serializable state.
func TestFaultWriterCrashRecovers(t *testing.T) {
	for _, strategy := range []string{"locking", "twophase"} {
		t.Run(strategy, func(t *testing.T) {
			e := faultExperiment(strategy)
			script := fault.WriterCrashEarly()
			e.Faults = &script

			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != verify.Torn {
				t.Fatalf("unrecovered verdict = %q, want %q (report %+v)", res.Verdict, verify.Torn, res.Report)
			}

			e.Recovery = true
			res, err = e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != verify.RecoveredSerializable {
				t.Fatalf("recovered verdict = %q, want %q (report %+v)", res.Verdict, verify.RecoveredSerializable, res.Report)
			}
		})
	}
}

// TestFaultHealthyRunUnaffected pins that attaching an empty script and the
// recovery machinery to a healthy run changes nothing observable: same
// timings, same serializable verdict, no replay.
func TestFaultHealthyRunUnaffected(t *testing.T) {
	base := faultExperiment("locking")
	clean, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	e := faultExperiment("locking")
	e.Faults = &fault.Script{Name: "empty", Lease: fault.DefaultLease}
	e.Recovery = true
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != verify.Serializable || res.Replayed != nil {
		t.Fatalf("verdict = %q replayed = %v, want clean serializable", res.Verdict, res.Replayed)
	}
	if res.Makespan != clean.Makespan || res.WrittenBytes != clean.WrittenBytes {
		t.Fatalf("empty fault script perturbed the run: makespan %v vs %v, written %d vs %d",
			res.Makespan, clean.Makespan, res.WrittenBytes, clean.WrittenBytes)
	}
}

// TestFaultVerdictsByteIdenticalAcrossEngines pins the explorer's
// zero-delay schedule to Run under every builtin fault script, with and
// without recovery: identical verdicts, replay sets, reports, timings and
// server stats. TestExploreFaults explores the delayed schedules.
func TestFaultVerdictsByteIdenticalAcrossEngines(t *testing.T) {
	for _, script := range builtinScripts() {
		script := script
		for _, recovery := range []bool{false, true} {
			name := script.Name
			if recovery {
				name += "+recovery"
			}
			t.Run(name, func(t *testing.T) {
				e := faultExperiment("locking")
				e.Faults = &script
				e.Recovery = recovery
				pinIdentity(t, e)
			})
		}
	}
}

// TestFaultGeneratedScriptsDeterministic runs seeded generated scripts
// under every single-delay schedule: the verdict and replay set are a
// function of the seed alone, whatever the schedule.
func TestFaultGeneratedScriptsDeterministic(t *testing.T) {
	p := fault.GenParams{Servers: 2, Ranks: 4, LockFaults: true, WriterCrash: true}
	for seed := uint64(1); seed <= 6; seed++ {
		script := fault.Generate(seed, p)
		e := faultExperiment("locking")
		e.Faults = &script
		e.Recovery = true
		t.Run(script.Name, func(t *testing.T) {
			var identity *Result
			explore(t, e, 1, func(s schedule) {
				if identity == nil {
					identity = s.res
				}
				if s.res.Verdict == verify.Torn || s.res.Verdict != identity.Verdict || !reflect.DeepEqual(s.res.Replayed, identity.Replayed) {
					t.Errorf("delays %v: verdict %q replayed %v, the zero-delay schedule's are %q %v",
						s.delays, s.res.Verdict, s.res.Replayed, identity.Verdict, identity.Replayed)
				}
			})
		})
	}
}
