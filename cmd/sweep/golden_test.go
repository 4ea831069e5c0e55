package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current sources")

// TestMain lets the golden test run this package's main as a child
// process: with SWEEP_RUN_MAIN set, the test binary is the sweep command.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTraceGolden pins sweep's stdout — the bandwidth table and every
// cell's -trace phase breakdown — for Origin2000, the four strategies
// that report phases, P ∈ {2, 4} (regenerate with
// `go test ./cmd/sweep -run TestTraceGolden -update`). The numbers are
// virtual time, so the output is the same on any host.
func TestTraceGolden(t *testing.T) {
	base := []string{"-platform", "Origin2000", "-m", "256", "-n", "1024", "-p", "2,4", "-r", "8",
		"-strategies", "locking,coloring,ordering,twophase", "-trace"}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"trace.golden", base},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "SWEEP_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("sweep %v: %v\n%s", tc.args, err, stderr.String())
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./cmd/sweep -run TestTraceGolden -update`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("sweep %v stdout changed:\n got:\n%s\nwant:\n%s", tc.args, got, want)
			}
		})
	}
}
