package harness

import (
	"fmt"
	"strings"

	"atomio/internal/core"
	"atomio/internal/platform"
)

// The paper's Figure 8 grid: three array sizes on three platforms, written
// by 4, 8 and 16 processes with each applicable strategy. M is fixed at
// 4096 rows; N varies. The overlap R is "a few columns"; 64 reproduces a
// visible ordering-vs-coloring volume gap without dominating the array.
const (
	Figure8M       = 4096
	Figure8Overlap = 64
)

// Figure8Sizes are the three N values: 32 MB, 128 MB and 1 GB arrays.
var Figure8Sizes = []struct {
	N     int
	Label string
}{
	{8192, "32 MB"},
	{32768, "128 MB"},
	{262144, "1 GB"},
}

// Figure8Procs are the process counts on the x axis.
var Figure8Procs = []int{4, 8, 16}

// Panel is one of the nine subplots of Figure 8.
type Panel struct {
	Platform platform.Profile
	N        int
	Label    string
}

// Methods returns the strategies measured on a platform: Cplant has no
// locking ("our performance results on CPlant do not include the
// experiments that use file locking").
func Methods(prof platform.Profile) []core.Strategy {
	if prof.SupportsLocking() {
		return []core.Strategy{core.Locking{}, core.Coloring{}, core.RankOrder{}}
	}
	return []core.Strategy{core.Coloring{}, core.RankOrder{}}
}

// Series is one curve of a panel: bandwidth by process count.
type Series struct {
	Method     string
	ByProcs    map[int]float64 // P -> MB/s
	Written    map[int]int64   // P -> bytes physically written
	MakespanMS map[int]float64 // P -> virtual milliseconds
}

// RenderPanel prints a panel the way the paper's subplots read: one row per
// process count, one column per strategy.
func RenderPanel(p Panel, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s    Array size: %d x %d (%s)\n", p.Platform.Name, Figure8M, p.N, p.Label)
	fmt.Fprintf(&b, "%-6s", "P")
	for _, s := range series {
		fmt.Fprintf(&b, "%16s", s.Method)
	}
	b.WriteByte('\n')
	for _, procs := range Figure8Procs {
		fmt.Fprintf(&b, "%-6d", procs)
		for _, s := range series {
			fmt.Fprintf(&b, "%11.2f MB/s", s.ByProcs[procs])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
