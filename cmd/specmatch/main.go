// Command specmatch runs the two-stage distributed spectrum matching
// algorithm on a market — randomly generated or loaded from JSON — and
// prints the matching, per-stage statistics, a stability report, and
// (optionally, for small markets) the gap to the centralized optimum.
//
// Usage:
//
//	specmatch -sellers 5 -buyers 40 -seed 1
//	specmatch -market market.json -mwis exact -optimal
//	specgen -sellers 4 -buyers 10 | specmatch -market - -optimal
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"specmatch"
	"specmatch/internal/market"
	"specmatch/internal/mwis"
	"specmatch/internal/obs"
	"specmatch/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "specmatch:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("specmatch", flag.ContinueOnError)
	var (
		sellers     = fs.Int("sellers", 5, "number of sellers (channels) to generate")
		buyers      = fs.Int("buyers", 40, "number of buyers to generate")
		seed        = fs.Int64("seed", 1, "generation seed")
		permuteM    = fs.Int("similarity-permute", -1, "similarity control: sort vectors then permute this many entries (-1 = raw i.i.d.)")
		marketPath  = fs.String("market", "", "load market JSON from this path ('-' = stdin) instead of generating")
		mwisName    = fs.String("mwis", "gwmin", "coalition solver: gwmin, gwmin2, gwmax, greedy-best, exact")
		skipP1      = fs.Bool("skip-transfer", false, "ablation: skip Stage II Phase 1")
		skipP2      = fs.Bool("skip-invitation", false, "ablation: skip Stage II Phase 2")
		doSwap      = fs.Bool("swap", false, "extension: run the coordinated-exchange stage after Stage II")
		verify      = fs.Bool("verify", false, "record the protocol trace and lint it against Algorithms 1-2")
		compareOpt  = fs.Bool("optimal", false, "also solve the centralized optimum (small markets only)")
		jsonOut     = fs.Bool("json", false, "emit the result as JSON")
		noCache     = fs.Bool("no-cache", false, "solve every coalition, skipping the independent-set fast path (identical output; for benchmarking)")
		metricsJSON = fs.String("metrics-json", "", "write an engine metrics snapshot JSON to this path ('-' = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help already printed usage
		}
		return err
	}

	m, err := loadOrGenerate(*marketPath, *sellers, *buyers, *seed, *permuteM)
	if err != nil {
		return err
	}

	alg, err := mwis.ParseAlgorithm(*mwisName)
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if *verify {
		rec = trace.NewRecorder()
	}
	var reg *obs.Registry
	if *metricsJSON != "" {
		reg = obs.NewRegistry()
	}
	res, err := specmatch.Match(m, specmatch.MatchOptions{
		MWIS:                  alg,
		DisableCoalitionCache: *noCache,
		SkipTransfer:          *skipP1,
		SkipInvitation:        *skipP2,
		Recorder:              rec,
		Metrics:               reg,
	})
	if err != nil {
		return err
	}
	if *metricsJSON != "" {
		if err := obs.WriteSnapshotFile(reg, *metricsJSON, out); err != nil {
			return err
		}
	}
	var traceViolations []string
	if *verify {
		traceViolations = trace.Verify(rec.Events(), trace.VerifyOptions{})
	}
	var swapStats specmatch.SwapStats
	if *doSwap {
		swapStats, err = specmatch.ImproveSwaps(m, res.Matching, specmatch.SwapOptions{})
		if err != nil {
			return fmt.Errorf("swap stage: %w", err)
		}
		res.Welfare = swapStats.FinalWelfare
	}
	rep := specmatch.CheckStability(m, res.Matching)

	if *jsonOut {
		payload := map[string]any{
			"market":  map[string]int{"sellers": m.M(), "buyers": m.N()},
			"welfare": res.Welfare,
			"matched": res.Matched,
			"stage_i": res.StageI,
			"phase_1": res.Phase1,
			"phase_2": res.Phase2,
			"cache":   res.Cache,
			"stability": map[string]bool{
				"interference_free":     rep.InterferenceFree,
				"individually_rational": rep.IndividuallyRational,
				"nash_stable":           rep.NashStable,
				"pairwise_stable":       rep.PairwiseStable,
			},
		}
		if *doSwap {
			payload["swap"] = swapStats
		}
		if *compareOpt {
			_, opt, err := specmatch.Optimal(m)
			if err != nil {
				return fmt.Errorf("optimal benchmark: %w", err)
			}
			payload["optimal_welfare"] = opt
			payload["ratio"] = res.Welfare / opt
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(payload)
	}

	fmt.Fprintf(out, "market: %d sellers × %d buyers\n", m.M(), m.N())
	fmt.Fprintf(out, "matching: %v\n", res.Matching)
	fmt.Fprintf(out, "welfare: %.4f (matched %d/%d buyers)\n", res.Welfare, res.Matched, m.N())
	fmt.Fprintf(out, "rounds: stage I %d, phase 1 %d, phase 2 %d\n",
		res.StageI.Rounds, res.Phase1.Rounds, res.Phase2.Rounds)
	fmt.Fprintf(out, "welfare by stage: %.4f → %.4f → %.4f\n",
		res.StageI.Welfare, res.Phase1.Welfare, res.Phase2.Welfare)
	if !*noCache {
		fmt.Fprintf(out, "coalition cache: %d memo hits, %d independent fast paths, %d solves\n",
			res.Cache.Hits, res.Cache.Independent, res.Cache.Misses)
	}
	if *doSwap {
		fmt.Fprintf(out, "swap stage: %d swaps, %d relocations, welfare +%.4f\n",
			swapStats.Swaps, swapStats.Relocations, swapStats.WelfareGain)
	}
	fmt.Fprintf(out, "stability:\n%v\n", rep)
	if *verify {
		if len(traceViolations) == 0 {
			fmt.Fprintf(out, "protocol trace: OK (%d events linted)\n", rec.Len())
		} else {
			fmt.Fprintf(out, "protocol trace: %d violations\n", len(traceViolations))
			for _, v := range traceViolations {
				fmt.Fprintf(out, "  - %s\n", v)
			}
		}
	}
	if *compareOpt {
		_, opt, err := specmatch.Optimal(m)
		if err != nil {
			return fmt.Errorf("optimal benchmark: %w", err)
		}
		fmt.Fprintf(out, "optimal welfare: %.4f (ratio %.3f)\n", opt, res.Welfare/opt)
	}
	return nil
}

func loadOrGenerate(path string, sellers, buyers int, seed int64, permuteM int) (*specmatch.Market, error) {
	if path == "" {
		cfg := specmatch.MarketConfig{Sellers: sellers, Buyers: buyers, Seed: seed}
		if permuteM >= 0 {
			cfg.Similarity = &specmatch.SimilarityConfig{PermuteM: permuteM}
		}
		return specmatch.GenerateMarket(cfg)
	}
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, fmt.Errorf("reading market: %w", err)
	}
	var m market.Market
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decoding market: %w", err)
	}
	return &m, nil
}
