// Command specperf is the serving benchmark: it boots the real serving stack
// in-process (server.New configured as specserved's defaults, served over
// loopback HTTP), drives one of four named workloads at it from 2 sender
// goroutines on at most 2 connections, and prints every metric by name with
// its unit and sample count. A replay oracle checks every acknowledged
// event and every final snapshot against an offline replay; any wrong
// output makes the run exit non-zero.
//
//	bash cmd/specperf/run.sh --workload churn-fig7a --seed 1 --seconds 20 --trace 0
//	bash cmd/specperf/run.sh --seed 1                        # all four workloads
//	bash cmd/specperf/run.sh --workload mobile-fig7a --trace 1 --trace-dir traces
//
// Inputs derive from -seed and a fixed fleet seed alone. With -trace 0 the
// last line is a JSON object carrying the end-to-end metrics; with -trace 1
// the run instead traces a paced stretch and the JSON carries the per-layer
// metrics. See README.md for the metric definitions and how to compare two
// commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "specperf:", err)
	}
	os.Exit(code)
}

// jsonMetric and jsonResult are the final output line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("specperf", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
		seed     = fs.Int64("seed", 1, "traffic seed: event streams and arrival schedules derive from it alone; the fleet of markets is the same for every seed")
		seconds  = fs.Int("seconds", 20, "measured seconds per workload, split into warm-up, paced and saturated phases")
		traced   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = untraced run reporting end-to-end metrics")
		traceDir = fs.String("trace-dir", "", "with -trace 1, write <workload>.trace.json Chrome traces here")
		dataDir  = fs.String("data-dir", ".bench_build/specperf-data", "parent directory for the durable workloads' data dirs")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return 2, fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			return 2, err
		}
		ws = append(ws, w)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traced == 1, traceDir: *traceDir, dataDir: *dataDir}
	fmt.Fprintf(out, "specperf: seed %d, %d s per workload, GOMAXPROCS=%d nproc=%d %s, %d senders on at most %d connections\n",
		*seed, *seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), numSenders, maxConns)

	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	final := jsonResult{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, w := range ws {
		res, err := runWorkload(w, o)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(out, res, defs)
		final.Attempted += res.attempted
		final.Failed += res.failed
		final.Correct = final.Correct && len(res.problems) == 0
		for _, d := range defs {
			key := d.name
			if len(ws) > 1 {
				key = w.name + "/" + d.name
			}
			final.Metrics[key] = jsonMetric{Value: res.metrics[d.name].value, Unit: d.unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(line))
	if !final.Correct {
		return 1, fmt.Errorf("wrong output (see the problems above)")
	}
	return 0, nil
}

// printResult writes one workload's report: the contract metrics of this
// run's kind, then every other value the run measured, then notes and
// problems.
func printResult(out io.Writer, res *result, defs []metricDef) {
	fmt.Fprintf(out, "== %s\n", res.workload)
	units := make(map[string]string)
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), reportOnly...), perLayer...) {
		units[d.name] = d.unit
	}
	shown := make(map[string]bool)
	for _, d := range defs {
		m := res.metrics[d.name]
		fmt.Fprintf(out, "  %-30s %14.6g %-9s n=%d\n", d.name, m.value, d.unit, m.n)
		shown[d.name] = true
	}
	var rest []string
	for name := range res.metrics {
		if !shown[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		m := res.metrics[name]
		fmt.Fprintf(out, "  (%s %.6g %s n=%d)\n", name, m.value, units[name], m.n)
	}
	fmt.Fprintf(out, "  requests: %d attempted, %d failed\n", res.attempted, res.failed)
	for _, n := range res.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "  PROBLEM: %s\n", p)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
