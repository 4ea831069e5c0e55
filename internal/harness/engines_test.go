package harness

import (
	"math/rand"
	"reflect"
	"testing"

	"atomio/internal/core"
	"atomio/internal/platform"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/sim/fault"
)

// runUnder executes the experiment under the named engine.
func runUnder(t *testing.T, e Experiment, eng sim.Engine) *Result {
	t.Helper()
	e.Engine = eng
	res, err := e.Run()
	if err != nil {
		t.Fatalf("%s under %s: %v", e, eng.Name(), err)
	}
	return res
}

// pinEngines runs the experiment under both engines and fails on any
// difference in virtual output: per-rank clocks, makespan, I/O time,
// written volume, bandwidth, per-server stats, and — when Verify is on —
// the atomicity report derived from the actual file contents.
func pinEngines(t *testing.T, e Experiment) {
	t.Helper()
	oracle := runUnder(t, e, sim.Goroutines{})
	loop := runUnder(t, e, des.New())

	if !reflect.DeepEqual(loop.RankTimes, oracle.RankTimes) {
		t.Errorf("per-rank clocks diverge\n eventloop %v\n goroutine %v", loop.RankTimes, oracle.RankTimes)
	}
	if loop.Makespan != oracle.Makespan {
		t.Errorf("makespan diverges: eventloop %v, goroutine %v", loop.Makespan, oracle.Makespan)
	}
	if loop.IOTime != oracle.IOTime {
		t.Errorf("I/O time diverges: eventloop %v, goroutine %v", loop.IOTime, oracle.IOTime)
	}
	if loop.WrittenBytes != oracle.WrittenBytes {
		t.Errorf("written bytes diverge: eventloop %d, goroutine %d", loop.WrittenBytes, oracle.WrittenBytes)
	}
	if loop.BandwidthMBs != oracle.BandwidthMBs {
		t.Errorf("bandwidth diverges: eventloop %v, goroutine %v", loop.BandwidthMBs, oracle.BandwidthMBs)
	}
	if !reflect.DeepEqual(loop.ServerStats, oracle.ServerStats) {
		t.Errorf("server stats diverge\n eventloop %+v\n goroutine %+v", loop.ServerStats, oracle.ServerStats)
	}
	if (loop.Report == nil) != (oracle.Report == nil) {
		t.Fatalf("report presence diverges: eventloop %v, goroutine %v", loop.Report, oracle.Report)
	}
	if loop.Report != nil && !reflect.DeepEqual(loop.Report, oracle.Report) {
		t.Errorf("atomicity report diverges\n eventloop %+v\n goroutine %+v", loop.Report, oracle.Report)
	}
	if loop.Verdict != oracle.Verdict {
		t.Errorf("verdict diverges: eventloop %q, goroutine %q", loop.Verdict, oracle.Verdict)
	}
	if !reflect.DeepEqual(loop.Replayed, oracle.Replayed) {
		t.Errorf("replay set diverges: eventloop %v, goroutine %v", loop.Replayed, oracle.Replayed)
	}
}

// TestEnginesByteIdenticalRandomized pins the event-loop engine to the
// goroutine oracle on seeded random workloads across platforms, strategies,
// patterns and server counts. Each seed fully determines its workload, so a
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
		t.Run(e.String(), func(t *testing.T) { pinEngines(t, e) })
	}
}

// TestEnginesByteIdenticalCheckpoint pins a multi-step checkpoint run with
// compute gaps — the workload where server-queue and cache state carries
// across collective writes.
func TestEnginesByteIdenticalCheckpoint(t *testing.T) {
	pinEngines(t, Experiment{
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
	})
}

// TestEnginesByteIdenticalSharedHandshake pins every strategy whose
// handshake is computed once per collective and shared between ranks: which
// rank arrives first and runs the computation differs between the engines
// (and, on the goroutine engine, between runs), and nothing observable may
// depend on it. The writer-crash cells are the fleet's shape — rank 1 dies
// after one segment, intents replay: the crash surrenders data, not control
// flow, so the crashed rank still reaches every shared computation (mpi.Run
// fails a world that ends with one unreached).
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
		t.Run(strat.Name(), func(t *testing.T) { pinEngines(t, e) })

		crash := fault.WriterCrashEarly()
		e.Faults, e.Recovery = &crash, true
		t.Run(strat.Name()+"+writer-crash", func(t *testing.T) { pinEngines(t, e) })
	}
}

// TestEngineResolution checks the engine default chain: experiment override,
// then platform profile, then the event-loop default.
func TestEngineResolution(t *testing.T) {
	e := Experiment{Platform: platform.Origin2000()}
	if got := e.EngineName(); got != "eventloop" {
		t.Fatalf("default engine = %q, want eventloop", got)
	}
	e.Platform.Engine = sim.Goroutines{}
	if got := e.EngineName(); got != "goroutine" {
		t.Fatalf("platform engine = %q, want goroutine", got)
	}
	e.Engine = des.New()
	if got := e.EngineName(); got != "eventloop" {
		t.Fatalf("experiment engine = %q, want eventloop", got)
	}
}
