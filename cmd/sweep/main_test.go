package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// parseCases tables the sweep command line, covering the malformed inputs
// for every list-valued flag. The "too many" rows are values that pass
// every sign check and ran the process out of memory before the
// experiment's bounds reached the flags.
var parseCases = []struct {
	name string
	args []string
	ok   bool
	want string // diagnostic substring for the failing cases
}{
	{"defaults", nil, true, ""},
	{"full", []string{"-platform", "IBM SP", "-m", "512", "-n", "4096", "-p", "2,4",
		"-r", "8", "-pattern", "row", "-strategies", "coloring,ordering",
		"-trace", "-workers", "2", "-json", "a.json",
		"-servers", "3"}, true, ""},
	{"profiled", []string{"-strategies", "locking", "-workers", "1",
		"-cpuprofile", "cpu.pb.gz", "-memprofile", "mem.pb.gz"}, true, ""},
	{"memprofile without a file", []string{"-memprofile"}, false, "flag needs an argument: -memprofile"},
	{"bad shape", []string{"-m", "0"}, false, "must be positive"},
	{"bad overlap", []string{"-r", "-1"}, false, "non-negative"},
	{"empty procs", []string{"-p", ""}, false, "empty process list"},
	{"bad procs entry", []string{"-p", "4,x"}, false, "bad process count"},
	{"zero procs", []string{"-p", "0"}, false, "must be positive"},
	{"bad pattern", []string{"-pattern", "diagonal"}, false, "unknown pattern"},
	{"empty pattern", []string{"-pattern", ""}, false, "empty pattern"},
	{"unknown strategy", []string{"-strategies", "osmosis"}, false, "registered:"},
	{"empty strategy entry", []string{"-strategies", "locking,,ordering"}, false, "empty entry"},
	{"negative servers", []string{"-servers", "-9"}, false, "non-negative"},
	{"unknown flag", []string{"-nosuch"}, false, "not defined"},
	{"store", []string{"-store"}, false, "flag provided but not defined: -store"},
	{"trace limit", []string{"-trace-out", "t.jsonl", "-trace-limit", "4"}, false, "flag provided but not defined: -trace-limit"},
	{"too many procs", []string{"-m", "1", "-n", "4194304", "-p", "4194304", "-r", "0", "-strategies", "ordering"},
		false, "sweep: harness: process count must be"},
	{"too many servers", []string{"-servers", "1073741824"}, false, "harness: servers must be"},
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

// TestParseFlagsBinds checks defaults and parsed values reach the config.
func TestParseFlagsBinds(t *testing.T) {
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.platform != "Origin2000" || cfg.shape.M != 1024 || cfg.shape.N != 8192 ||
		cfg.shape.Overlap != 16 || cfg.pattern != "column-wise" {
		t.Errorf("defaults: %+v shape=%+v", cfg, cfg.shape)
	}
	if !reflect.DeepEqual(cfg.procs, []int{4, 8, 16}) {
		t.Errorf("default procs = %v", cfg.procs)
	}
	if !reflect.DeepEqual(cfg.strategies, []string{"locking", "coloring", "ordering"}) {
		t.Errorf("default strategies = %v", cfg.strategies)
	}
	cfg, err = parseFlags([]string{"-pattern", "block-block", "-p", " 2 , 4 "}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.pattern != "block-block" || !reflect.DeepEqual(cfg.procs, []int{2, 4}) {
		t.Errorf("parsed: pattern=%q procs=%v", cfg.pattern, cfg.procs)
	}
}

// FuzzParseFlags: no command line makes parseFlags panic, and every one it
// accepts expands into cells the experiment's Validate can judge — an error
// is fine ("-p 3" does not divide the default N), a panic or an allocation
// sized by an unchecked flag is not. No cell is run. The seeds are the
// table's rows, re-split on spaces.
func FuzzParseFlags(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(strings.Join(tc.args, " "))
	}
	f.Fuzz(func(t *testing.T, line string) {
		cfg, err := parseFlags(strings.Fields(line), io.Discard)
		if err != nil {
			return
		}
		_, _, cells, err := expand(cfg, io.Discard)
		if err != nil {
			return
		}
		for _, c := range cells {
			_ = c.Experiment.Validate()
		}
	})
}
