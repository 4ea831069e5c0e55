package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"atomio/internal/core"
	"atomio/internal/obs"
	"atomio/internal/platform"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/sim/fault"
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

// TestTraceByteIdenticalAcrossEngines pins what a traced run records to the
// goroutine reference engine: the serialized event stream and the metrics
// registry are identical on both engines, for the single lock table and the
// sharded one.
func TestTraceByteIdenticalAcrossEngines(t *testing.T) {
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
		for _, shards := range []int{1, 4} {
			e := Experiment{
				Platform: prof, M: 256, N: 2048, Procs: 4, Overlap: 8,
				Pattern: ColumnWise, Strategy: strat,
				LockShards: shards, TraceEvents: true,
			}
			t.Run(fmt.Sprintf("%s/shards=%d", strat.Name(), shards), func(t *testing.T) {
				oracle := runUnder(t, e, sim.Goroutines{})
				loop := runUnder(t, e, des.New())
				want, got := jsonl(t, oracle), jsonl(t, loop)
				if bytes.Count(got, []byte("\n")) < 10 {
					t.Fatal("trace suspiciously small; test vacuous")
				}
				if !bytes.Equal(got, want) {
					t.Error("event stream diverges between the engines")
				}
				if !reflect.DeepEqual(loop.Metrics, oracle.Metrics) {
					t.Errorf("metrics diverge\n eventloop %+v\n goroutine %+v", loop.Metrics, oracle.Metrics)
				}
			})
		}
	}
}
