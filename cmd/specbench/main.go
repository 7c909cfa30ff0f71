// Command specbench regenerates the paper's evaluation figures (§V) and this
// reproduction's ablations as printed series.
//
// Usage:
//
//	specbench -figure all            # every panel, paper-level replication
//	specbench -figure 6a -reps 50
//	specbench -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"specmatch/internal/experiment"
	"specmatch/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "specbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("specbench", flag.ContinueOnError)
	var (
		figure      = fs.String("figure", "all", "figure id (6a..8c, ablation-*) or 'all'")
		reps        = fs.Int("reps", 20, "replications per sweep point (0 = 20)")
		seed        = fs.Int64("seed", 1, "base seed")
		workers     = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		list        = fs.Bool("list", false, "list available figures and exit")
		format      = fs.String("format", "table", "output format: table, csv, json")
		plot        = fs.Bool("plot", false, "render an ASCII chart under each table")
		check       = fs.Bool("check", false, "verify each figure against the paper's published shape")
		basePth     = fs.String("baseline", "", "write an engine benchmark baseline (welfare goldens + timings) to this path and exit")
		metricsJSON = fs.String("metrics-json", "", "write an aggregate engine metrics snapshot JSON ('-' = stdout) after the run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help already printed usage
		}
		return err
	}
	// A negative count would run no replication and print an all-zero
	// figure, so reject it up front.
	if *reps < 0 || *workers < 0 {
		return fmt.Errorf("-reps and -workers must not be negative (0 means the default)")
	}

	if *basePth != "" {
		return writeBaseline(*basePth, *seed, out)
	}

	catalog := experiment.Catalog()
	if *list {
		for _, id := range experiment.IDs() {
			fmt.Fprintf(out, "%-16s %s\n", id, catalog[id].Description)
		}
		return nil
	}

	ids := experiment.IDs()
	if *figure != "all" {
		spec, ok := catalog[*figure]
		if !ok {
			return fmt.Errorf("unknown figure %q (try -list)", *figure)
		}
		ids = []string{spec.ID}
	}

	var reg *obs.Registry
	if *metricsJSON != "" {
		reg = obs.NewRegistry()
	}
	cfg := experiment.RunConfig{Seed: *seed, Reps: *reps, Workers: *workers, Metrics: reg}
	failures := 0
	for _, id := range ids {
		start := time.Now()
		fig, err := catalog[id].Run(cfg)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		switch *format {
		case "table":
			fmt.Fprintf(out, "%s", fig.Format())
			if *plot {
				fmt.Fprintf(out, "\n%s", fig.Plot(56, 14))
			}
			if *check {
				if violations := experiment.VerifyShapes(fig); len(violations) == 0 {
					fmt.Fprintln(out, "shape check: PASS (matches the paper's published shape)")
				} else {
					failures++
					fmt.Fprintln(out, "shape check: FAIL")
					for _, v := range violations {
						fmt.Fprintf(out, "  - %s\n", v)
					}
				}
			}
			fmt.Fprintf(out, "(%d reps/point, seed %d, %v)\n\n", *reps, *seed, time.Since(start).Round(time.Millisecond))
		case "csv":
			s, err := fig.CSV()
			if err != nil {
				return err
			}
			fmt.Fprint(out, s)
		case "json":
			s, err := fig.JSON()
			if err != nil {
				return err
			}
			fmt.Fprint(out, s)
		default:
			return fmt.Errorf("unknown format %q (want table, csv or json)", *format)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d figure(s) failed the published-shape check", failures)
	}
	if reg != nil {
		// The engine's own round-latency histogram, summarized with the
		// bucket-interpolated quantile estimator — no raw samples kept.
		if h := reg.Histogram("core.round_seconds", obs.TimeBuckets()); h.Count() > 0 {
			fmt.Fprintf(out, "engine rounds: %d, round ms: p50=%.4f p90=%.4f p99=%.4f\n",
				h.Count(), h.Quantile(0.50)*1e3, h.Quantile(0.90)*1e3, h.Quantile(0.99)*1e3)
		}
	}
	if *metricsJSON != "" {
		return obs.WriteSnapshotFile(reg, *metricsJSON, out)
	}
	return nil
}
