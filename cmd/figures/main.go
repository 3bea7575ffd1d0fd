// Command figures regenerates the paper's tables and figures on the
// simulated testbed and prints the series each one plots.
//
// Usage:
//
//	figures -fig all            # every table and figure (long)
//	figures -fig 2              # one figure
//	figures -fig table1         # the testbed table
//	figures -fig ablations      # the ablation and extension figures
//	figures -quick              # shorter windows (not Figs 16-19)
//	figures -json               # each row's labels, run document and point
//
// The exit status is 2 for an unknown figure or flag, 1 when a run fails,
// and 0 otherwise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nvmeoaf/internal/figures"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run regenerates the figures args select and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: table1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, "+
		strings.Join(figures.Ablations(figures.Table(figures.Defaults())), ", ")+", ablations (every ablation above), or all")
	quick := fs.Bool("quick", false, "use short measurement windows (Figs 16-19 and the coalesce ablation "+
		"run whole h5bench kernels, which take no window, so they do not shorten)")
	seed := fs.Int64("seed", 42, "simulation seed")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of tables")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opts := figures.Defaults()
	if *quick {
		opts = figures.Quick()
	}
	opts.Seed = *seed
	figs, err := figures.Select(figures.Table(opts), *fig)
	if err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return 2
	}
	runner := figures.NewRunner()
	for i := range figs {
		if err := runner.Run(&figs[i]); err != nil {
			fmt.Fprintf(stderr, "figures: fig %s: %v\n", figs[i].Names[0], err)
			return 1
		}
		if !*asJSON {
			fmt.Fprintln(stdout, figures.Format(figs[i]))
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(figs); err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 1
		}
	}
	return 0
}
