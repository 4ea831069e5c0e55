package atomio_test

import (
	"fmt"
	"log"

	"atomio"
)

// ExampleRun executes a single verified experiment: the column-wise
// concurrent overlapping write of a small array, with MPI atomicity
// checked on the resulting file bytes. Every reported number is virtual
// (simulated) time, so the output is deterministic.
func ExampleRun() {
	res, err := atomio.Run(
		atomio.Platform("Origin2000"),
		atomio.Array(64, 256),
		atomio.Procs(4),
		atomio.Overlap(8),
		atomio.Strategy("ordering"),
		atomio.Verify(true),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("atomic: %v\n", res.Report.Atomic())
	fmt.Printf("bandwidth: %.2f MB/s\n", res.BandwidthMBs)
	// Output:
	// atomic: true
	// bandwidth: 0.83 MB/s
}

// ExampleRunGrid sweeps a small grid — one platform, two process counts,
// two strategies — on the worker pool and prints each cell's bandwidth.
func ExampleRunGrid() {
	grid := atomio.Grid{
		Platforms:  []string{"IBM SP"},
		Sizes:      []atomio.Size{{M: 64, N: 512}},
		Procs:      []int{2, 4},
		Strategies: []string{"coloring", "ordering"},
		Options:    []atomio.Option{atomio.Overlap(8)},
	}
	cells, err := grid.Cells()
	if err != nil {
		log.Fatal(err)
	}
	results := atomio.RunGrid(cells, atomio.RunOptions{Workers: 2})
	if err := atomio.FirstErr(results); err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%s %.2f MB/s\n", r.Cell.ID, r.Result.BandwidthMBs)
	}
	// Output:
	// IBM SP/64x512/P2/coloring 1.02 MB/s
	// IBM SP/64x512/P2/ordering 1.16 MB/s
	// IBM SP/64x512/P4/coloring 0.71 MB/s
	// IBM SP/64x512/P4/ordering 0.76 MB/s
}

// ExampleNew_degradedScenario runs the same workload healthy and with one
// 4x-degraded I/O server, reading the damage off the per-server stats.
// Degraded output is explicitly non-comparable to healthy Figure 8
// numbers — it answers "what does this failure cost".
func ExampleNew_degradedScenario() {
	opts := []atomio.Option{
		atomio.Platform("Cplant"),
		atomio.Array(128, 1024),
		atomio.Procs(4),
		atomio.Overlap(8),
		atomio.Strategy("ordering"),
	}
	healthy, err := atomio.Run(opts...)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := atomio.New(append(opts, atomio.Scenario("slow0x4"))...)
	if err != nil {
		log.Fatal(err)
	}
	degraded, err := spec.Run()
	if err != nil {
		log.Fatal(err)
	}
	hot := atomio.SummarizeServerStats(degraded.ServerStats, degraded.Makespan)
	fmt.Printf("servers: %d\n", len(degraded.ServerStats))
	fmt.Printf("slowdown: %.1fx\n", degraded.Makespan.Seconds()/healthy.Makespan.Seconds())
	fmt.Printf("hottest-server occupancy: %.0f%%\n", hot.MaxOccupancy*100)
	// Output:
	// servers: 12
	// slowdown: 3.3x
	// hottest-server occupancy: 93%
}
