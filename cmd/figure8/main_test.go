package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// parseCases tables the figure8 command line: well-formed inputs produce a
// config, malformed inputs produce a diagnostic under the binary's name.
// The "too many" rows are values that pass every sign check and ran the
// process out of memory before the experiment's bounds reached the flags.
var parseCases = []struct {
	name string
	args []string
	ok   bool
	want string // diagnostic substring for the failing cases
}{
	{"empty", nil, true, ""},
	{"full grid knobs", []string{"-platform", "Cplant", "-size", "32 MB", "-v",
		"-workers", "2", "-progress", "-json", "a.json", "-csv", "b.csv",
		"-servers", "7"}, true, ""},
	{"scale", []string{"-scale", "-workers", "2"}, true, ""},
	{"scale to 16k", []string{"-scale", "-maxp", "16384"}, true, ""},
	{"scale lowered", []string{"-scale", "-maxp", "64"}, true, ""},
	{"scale profiled", []string{"-scale", "-maxp", "4096", "-workers", "1",
		"-cpuprofile", "cpu.pb.gz", "-memprofile", "mem.pb.gz"}, true, ""},
	{"cpuprofile without a file", []string{"-cpuprofile"}, false, "flag needs an argument: -cpuprofile"},
	{"goroutine engine", []string{"-engine", "goroutine"}, false, "flag provided but not defined: -engine"},
	{"negative servers", []string{"-servers", "-1"}, false, "-servers must be non-negative"},
	{"non-numeric workers", []string{"-workers", "x"}, false, "invalid value"},
	{"two modes", []string{"-scale", "-degraded"}, false, "mutually exclusive"},
	{"degraded with sharedstore", []string{"-degraded", "-sharedstore"}, false, "flag provided but not defined: -sharedstore"},
	{"degraded with servers", []string{"-degraded", "-servers", "3"}, false, "would be ignored"},
	{"scale with platform", []string{"-scale", "-platform", "Cplant"}, false, "incompatible"},
	{"maxp without scale", []string{"-maxp", "2048"}, false, "-maxp is only meaningful with -scale"},
	{"maxp too small", []string{"-scale", "-maxp", "32"}, false, "-maxp must be at least 64"},
	{"maxp too large", []string{"-scale", "-maxp", "32768"}, false, "-maxp must be at most 16384"},
	{"non-numeric maxp", []string{"-scale", "-maxp", "x"}, false, "invalid value"},
	{"fleet", []string{"-fleet"}, true, ""},
	{"fleet seeded", []string{"-fleet", "-seed", "42", "-cells", "500", "-workers", "4"}, true, ""},
	{"fleet with engine", []string{"-fleet", "-engine", "eventloop"}, false, "flag provided but not defined: -engine"},
	{"fleet with scale", []string{"-fleet", "-scale"}, false, "mutually exclusive"},
	{"fleet with degraded", []string{"-fleet", "-degraded"}, false, "mutually exclusive"},
	{"fleet with servers", []string{"-fleet", "-servers", "4"}, false, "fault surface"},
	{"fleet with platform", []string{"-fleet", "-platform", "Cplant"}, false, "incompatible"},
	{"fleet with store", []string{"-fleet", "-store"}, false, "flag provided but not defined: -store"},
	{"store", []string{"-store", "-platform", "Cplant", "-size", "32 MB"}, false, "flag provided but not defined: -store"},
	{"seed without fleet", []string{"-seed", "2"}, false, "only meaningful with -fleet"},
	{"cells without fleet", []string{"-cells", "50"}, false, "only meaningful with -fleet"},
	{"zero cells", []string{"-fleet", "-cells", "0"}, false, "-cells must be at least 1"},
	{"non-numeric seed", []string{"-fleet", "-seed", "x"}, false, "invalid value"},
	{"unknown engine", []string{"-engine", "threads"}, false, "flag provided but not defined: -engine"},
	{"unknown flag", []string{"-nosuch"}, false, "not defined"},
	{"trace limit", []string{"-trace-out", "t.jsonl", "-trace-limit", "4"}, false, "flag provided but not defined: -trace-limit"},
	{"too many servers", []string{"-servers", "1073741824", "-platform", "Cplant", "-size", "32 MB"},
		false, "figure8: -servers: harness: servers must be"},
	{"too many cells", []string{"-fleet", "-cells", "1000000000"}, false, "-cells must be at most"},
}

func TestParseFlags(t *testing.T) {
	for _, tc := range parseCases {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			start := time.Now()
			defer func() {
				if d := time.Since(start); d > time.Second {
					t.Errorf("parseFlags(%v) took %v", tc.args, d)
				}
			}()
			cfg, err := parseFlags(tc.args, &buf)
			if tc.ok {
				if err != nil {
					t.Fatalf("parseFlags(%v) = %v; stderr %q", tc.args, err, buf.String())
				}
				if cfg == nil {
					t.Fatal("no config")
				}
				return
			}
			if err == nil {
				t.Fatalf("parseFlags(%v): want error", tc.args)
			}
			if !strings.Contains(buf.String(), tc.want) {
				t.Errorf("diagnostic %q missing %q", buf.String(), tc.want)
			}
		})
	}
}

// TestParseFlagsBinds checks the parsed values reach the config.
func TestParseFlagsBinds(t *testing.T) {
	cfg, err := parseFlags([]string{"-platform", "IBM SP", "-size", "1 GB",
		"-workers", "5", "-servers", "6"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.platform != "IBM SP" || cfg.size != "1 GB" ||
		cfg.out.Workers != 5 || cfg.model.Servers != 6 {
		t.Errorf("config = %+v out=%+v model=%+v", cfg, cfg.out, cfg.model)
	}

	cfg, err = parseFlags([]string{"-scale", "-maxp", "4096"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.scale || cfg.maxp != 4096 {
		t.Errorf("scale config = %+v model=%+v", cfg, cfg.model)
	}

	cfg, err = parseFlags([]string{"-fleet", "-seed", "9", "-cells", "64"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.fleet || cfg.seed != 9 || cfg.cells != 64 {
		t.Errorf("fleet config = %+v", cfg)
	}
}

// FuzzParseFlags: no command line makes parseFlags panic, and every one it
// accepts expands into cells the experiment's Validate can judge — an error
// is fine ("-size 32" names no size), a panic or an allocation sized by an
// unchecked flag is not. No cell is run. The seeds are the table's rows,
// re-split on spaces.
func FuzzParseFlags(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(strings.Join(tc.args, " "))
	}
	f.Fuzz(func(t *testing.T, line string) {
		cfg, err := parseFlags(strings.Fields(line), io.Discard)
		if err != nil {
			return
		}
		_, cells, err := expand(cfg)
		if err != nil {
			return
		}
		for _, c := range cells {
			_ = c.Experiment.Validate()
		}
	})
}
