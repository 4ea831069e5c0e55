package simclock_test

import (
	"testing"

	"atomio/internal/analysis/analyzertest"
	"atomio/internal/analysis/simclock"
)

func TestFixtures(t *testing.T) {
	analyzertest.Run(t, simclock.Analyzer,
		"./internal/analysis/testdata/src/simclock/internal/sim/clockfix",
		"./internal/analysis/testdata/src/simclock/internal/pfs/threadfix",
		"./internal/analysis/testdata/src/simclock/internal/runner/poolok",
		"./internal/analysis/testdata/src/simclock/cmd/wallfix",
		"./internal/analysis/testdata/src/simclock/internal/analysis/clockok")
}
