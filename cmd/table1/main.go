// Command table1 prints the paper's Table 1 (system configurations of the
// three experimental platforms) from the encoded profiles, plus the derived
// simulator parameters each profile feeds the file-system model. With
// -json the profiles are emitted machine-readably instead. The command is a
// pure consumer of the public atomio facade.
package main

import (
	"encoding/json"
	"io"
	"os"

	"atomio"
	"atomio/internal/cli"
)

// config is the parsed command line.
type config struct {
	params bool
	json   bool
}

// parseFlags parses the command line, printing diagnostics to stderr.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	app := cli.New("table1")
	app.SetOutput(stderr)
	cfg := &config{}
	app.Flags.BoolVar(&cfg.params, "params", false, "also print derived simulator parameters")
	app.Flags.BoolVar(&cfg.json, "json", false, "emit the profiles as JSON instead of text")
	if err := app.Parse(args); err != nil {
		return nil, err
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(cli.ExitCode(err))
	}

	if cfg.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(atomio.Profiles()); err != nil {
			cli.Fatal("table1", err)
		}
		return
	}
	os.Stdout.WriteString(atomio.Table1())
	if cfg.params {
		os.Stdout.WriteString("\nDerived simulator parameters:\n")
		os.Stdout.WriteString(atomio.PlatformParams())
	}
}
