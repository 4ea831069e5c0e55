package harness

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"atomio/internal/core"
	"atomio/internal/obs"
	"atomio/internal/platform"
	"atomio/internal/sim"
	"atomio/internal/sim/fault"
	"atomio/internal/verify"
)

// runUnder executes the experiment on the given engine.
func runUnder(t *testing.T, e Experiment, eng sim.Engine) *Result {
	t.Helper()
	res, err := e.run(eng)
	if err != nil {
		t.Fatalf("%s under %s: %v", e, eng.Name(), err)
	}
	return res
}

// checkDelayed runs e under eight single-delay schedules drawn from seed:
// each keeps Run's verdict without tearing, and a strategy that picks
// winners by rule keeps Run's winners.
func checkDelayed(t *testing.T, e Experiment, identity schedule, want *Result, seed int64) {
	t.Helper()
	for _, s := range seededDelays(t, e, identity, rand.New(rand.NewSource(seed)), 8) {
		if s.res.Verdict == verify.Torn || s.res.Verdict != want.Verdict {
			t.Errorf("delays %v: verdict %q, Run's is %q", s.delays, s.res.Verdict, want.Verdict)
		}
		if deterministicPolicy(e.Strategy) && winners(s.res) != winners(want) {
			t.Errorf("delays %v: atom winners %v, Run's are %v", s.delays, []byte(winners(s.res)), []byte(winners(want)))
		}
	}
}

// TestEnginesByteIdenticalRandomized pins the explorer's zero-delay
// schedule to Run on seeded random workloads across platforms, strategies,
// patterns and server counts, and checks eight single-delay schedules of
// each. Each seed fully determines its workload and its delays, so a
// failure reproduces by seed.
func TestEnginesByteIdenticalRandomized(t *testing.T) {
	profiles := platform.All()
	patterns := []Pattern{ColumnWise, RowWise, BlockBlock}
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prof := profiles[rng.Intn(len(profiles))]
		methods := Methods(prof)
		strat := methods[rng.Intn(len(methods))]
		pattern := patterns[rng.Intn(len(patterns))]
		procs := []int{4, 8, 16}[rng.Intn(3)]
		side := 1
		if pattern == BlockBlock {
			procs = []int{4, 9, 16}[rng.Intn(3)]
			for side*side < procs {
				side++
			}
		}
		e := Experiment{
			Platform: prof,
			// Scale rows with the process count so every pattern's
			// partition stays taller than the overlap, and keep both
			// dimensions divisible by a block-block grid side.
			M:         procs * 8 * (1 + rng.Intn(2)),
			N:         side * 256 * (1 + rng.Intn(3)),
			Procs:     procs,
			Overlap:   2 * (1 + rng.Intn(3)),
			Pattern:   pattern,
			Strategy:  strat,
			Servers:   []int{0, 1, 4}[rng.Intn(3)],
			StoreData: true,
			Verify:    true,
		}
		t.Run(e.String(), func(t *testing.T) {
			identity, want := pinIdentity(t, e)
			checkDelayed(t, e, identity, want, int64(seed))
		})
	}
}

// TestEnginesByteIdenticalCheckpoint pins a multi-step checkpoint run with
// compute gaps — the workload where server-queue and cache state carries
// across collective writes — and checks single-delay schedules of it.
func TestEnginesByteIdenticalCheckpoint(t *testing.T) {
	e := Experiment{
		Platform:  platform.IBMSP(),
		M:         64,
		N:         512,
		Procs:     8,
		Overlap:   8,
		Pattern:   ColumnWise,
		Strategy:  Methods(platform.IBMSP())[0],
		StoreData: true,
		Verify:    true,
		Steps:     3,
		Compute:   5_000_000,
	}
	identity, want := pinIdentity(t, e)
	checkDelayed(t, e, identity, want, 1)
}

// TestEnginesByteIdenticalSharedHandshake pins every strategy whose
// handshake is computed once per collective and shared between ranks, and
// checks single-delay schedules of each: which rank arrives first and runs
// the computation differs between schedules, and neither the verdict nor
// the winners may depend on it. The writer-crash cells are the fleet's
// shape — rank 1 dies after one segment, intents replay: the crash
// surrenders data, not control flow, so the crashed rank still reaches
// every shared computation (mpi.Run fails a world that ends with one
// unreached).
func TestEnginesByteIdenticalSharedHandshake(t *testing.T) {
	strategies := []core.Strategy{core.RankOrder{}, core.Coloring{}, core.Coloring{UseSpans: true}, core.TwoPhase{}}
	for _, strat := range strategies {
		e := Experiment{
			Platform:  platform.IBMSP(),
			M:         72,
			N:         1152,
			Procs:     9, // odd: the schedule merge leaves a run over at every level
			Overlap:   6,
			Pattern:   ColumnWise,
			Strategy:  strat,
			Servers:   2,
			StoreData: true,
			Verify:    true,
		}
		t.Run(strat.Name(), func(t *testing.T) {
			identity, want := pinIdentity(t, e)
			checkDelayed(t, e, identity, want, 1)
		})

		crash := fault.WriterCrashEarly()
		e.Faults, e.Recovery = &crash, true
		t.Run(strat.Name()+"+writer-crash", func(t *testing.T) {
			identity, want := pinIdentity(t, e)
			checkDelayed(t, e, identity, want, 1)
		})
	}
}

// TestTraceByteIdenticalUnderZeroDelaySchedule pins what a traced run
// records: the serialized event stream and the metrics registry are
// identical on the engine and under the explorer's zero-delay schedule.
func TestTraceByteIdenticalUnderZeroDelaySchedule(t *testing.T) {
	jsonl := func(t *testing.T, res *Result) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, res.Events); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	prof := platform.Origin2000()
	for _, strat := range []core.Strategy{core.Locking{}, core.Coloring{}} {
		e := Experiment{
			Platform: prof, M: 256, N: 2048, Procs: 4, Overlap: 8,
			Pattern: ColumnWise, Strategy: strat, TraceEvents: true,
		}
		t.Run(strat.Name(), func(t *testing.T) {
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := jsonl(t, res)
			if bytes.Count(got, []byte("\n")) < 10 {
				t.Fatal("trace suspiciously small; test vacuous")
			}
			want := runSchedule(t, e, nil).res
			if !bytes.Equal(got, jsonl(t, want)) {
				t.Error("event stream diverges from the zero-delay schedule run's")
			}
			if !reflect.DeepEqual(res.Metrics, want.Metrics) {
				t.Errorf("metrics diverge from the zero-delay schedule run's\n got %+v\nwant %+v", res.Metrics, want.Metrics)
			}
		})
	}
}
