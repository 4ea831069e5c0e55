package stdvet_test

import (
	"testing"

	"atomio/internal/analysis/analyzertest"
	"atomio/internal/analysis/stdvet"
)

func TestShadowFixtures(t *testing.T) {
	analyzertest.Run(t, stdvet.Shadow,
		"./internal/analysis/testdata/src/stdvet/shadowfix")
}

func TestNilnessFixtures(t *testing.T) {
	analyzertest.Run(t, stdvet.Nilness,
		"./internal/analysis/testdata/src/stdvet/nilnessfix")
}
