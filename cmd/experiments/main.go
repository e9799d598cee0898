// Command experiments regenerates the tables and figures of the paper's
// evaluation section on synthetic dataset analogs (see DESIGN.md §4 for the
// substitution table and EXPERIMENTS.md for paper-vs-measured results).
//
// Usage:
//
//	experiments -list
//	experiments -run fig5,fig6            # specific experiments
//	experiments -run all -scale quick     # everything, 8× smaller datasets
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mdbgp"
	"mdbgp/internal/experiments"
)

// parseScale maps the -scale flag onto a dataset divisor.
func parseScale(s string) (int, error) {
	switch s {
	case "full":
		return 1, nil
	case "quick":
		return 8, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want full or quick)", s)
	}
}

// selectExperiments resolves a comma-separated -run list ("all" included).
func selectExperiments(runList string) ([]experiments.Experiment, error) {
	if runList == "all" {
		return experiments.All(), nil
	}
	var selected []experiments.Experiment
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, err := experiments.ByName(name)
		if err != nil {
			return nil, err
		}
		selected = append(selected, e)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("empty -run list")
	}
	return selected, nil
}

func listExperiments(w io.Writer) {
	for _, e := range experiments.All() {
		fmt.Fprintf(w, "%-8s %-26s %s\n", e.Name, e.Paper, e.Desc)
	}
}

// runExperiments executes the selection in order, rendering every table to w.
func runExperiments(ctx *experiments.Context, selected []experiments.Experiment, w io.Writer) error {
	grandStart := time.Now()
	for _, e := range selected {
		fmt.Fprintf(w, "\n================ %s — %s ================\n", e.Paper, e.Name)
		fmt.Fprintln(w, e.Desc)
		start := time.Now()
		tables, err := e.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.Name, err)
		}
		for _, t := range tables {
			t.Render(w)
		}
		fmt.Fprintf(w, "\n[%s completed in %.1fs]\n", e.Name, time.Since(start).Seconds())
	}
	fmt.Fprintf(w, "\nAll done in %.1fs (seed=%d)\n", time.Since(grandStart).Seconds(), ctx.Seed)
	return nil
}

func main() {
	var (
		runList = flag.String("run", "all", "comma-separated experiment names, or 'all'")
		scale   = flag.String("scale", "full", "dataset scale: full (paper-analog sizes) or quick (8x smaller)")
		seed    = flag.Int64("seed", 42, "random seed")
		par     = flag.Int("p", 0, "GD worker parallelism: 0 = all cores, 1 = serial (results are seed-deterministic either way)")
		engine  = flag.String("engine", "", "solver engine for the GD role: "+strings.Join(mdbgp.EngineNames(), ", ")+" (default gd)")
		list    = flag.Bool("list", false, "list experiments and exit")
		quiet   = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()

	if *list {
		listExperiments(os.Stdout)
		return
	}

	scaleDiv, err := parseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	selected, err := selectExperiments(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var logSink io.Writer
	if !*quiet {
		logSink = os.Stderr
	}
	if _, err := mdbgp.LookupEngine(*engine); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	ctx := experiments.NewContext(scaleDiv, *seed, logSink)
	ctx.Parallelism = *par
	ctx.Engine = *engine
	ctx.EngineSolve = func(g *mdbgp.Graph, ws [][]float64, k int) (*mdbgp.Assignment, error) {
		res, err := mdbgp.Partition(g, mdbgp.Options{
			Engine: *engine, K: k, Weights: ws,
			Seed: *seed, Parallelism: *par,
		})
		if err != nil {
			return nil, err
		}
		return res.Assignment, nil
	}

	if err := runExperiments(ctx, selected, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
