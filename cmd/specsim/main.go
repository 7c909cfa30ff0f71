// Command specsim runs the asynchronous distributed matching protocol (§IV)
// over a simulated network, with selectable local transition rules and fault
// injection, and compares the outcome against the synchronous engine.
//
// Usage:
//
//	specsim -sellers 5 -buyers 40 -buyer-rule rule-ii -seller-rule probabilistic
//	specsim -drop 0.1 -delay 2 -seed 7
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"specmatch"
	"specmatch/internal/agent"
	"specmatch/internal/obs"
	"specmatch/internal/simnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "specsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("specsim", flag.ContinueOnError)
	var (
		sellers     = fs.Int("sellers", 5, "number of sellers (channels)")
		buyers      = fs.Int("buyers", 40, "number of buyers")
		seed        = fs.Int64("seed", 1, "generation seed")
		buyerRule   = fs.String("buyer-rule", "default", "buyer transition rule: default, rule-i, rule-ii")
		sellerRule  = fs.String("seller-rule", "default", "seller transition rule: default, probabilistic")
		buyerThres  = fs.Float64("buyer-threshold", 0.05, "P^k threshold for rule-ii")
		sellerThres = fs.Float64("seller-threshold", 0.05, "Q^k threshold for the probabilistic seller rule")
		drop        = fs.Float64("drop", 0, "message drop probability")
		delay       = fs.Int("delay", 0, "max extra delivery delay in slots")
		netSeed     = fs.Int64("net-seed", 1, "network fault seed")
		learnCDF    = fs.Bool("learn-cdf", false, "buyers estimate the price CDF from their own vectors (no common prior)")
		metricsJSON = fs.String("metrics-json", "", "write an agent/simnet metrics snapshot JSON to this path ('-' = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help already printed usage
		}
		return err
	}

	m, err := specmatch.GenerateMarket(specmatch.MarketConfig{Sellers: *sellers, Buyers: *buyers, Seed: *seed})
	if err != nil {
		return err
	}

	br, err := agent.ParseBuyerRule(*buyerRule)
	if err != nil {
		return err
	}
	sr, err := agent.ParseSellerRule(*sellerRule)
	if err != nil {
		return err
	}

	var reg *obs.Registry
	if *metricsJSON != "" {
		reg = obs.NewRegistry()
	}
	acfg := specmatch.AsyncConfig{
		Net:             simnet.Config{DropProb: *drop, DelayMax: *delay, Seed: *netSeed, Metrics: reg},
		BuyerRule:       br,
		SellerRule:      sr,
		BuyerThreshold:  *buyerThres,
		SellerThreshold: *sellerThres,
		LearnCDF:        *learnCDF,
		Metrics:         reg,
	}
	res, err := specmatch.MatchAsync(m, acfg)
	if err != nil {
		return err
	}

	sync, err := specmatch.Match(m, specmatch.MatchOptions{})
	if err != nil {
		return err
	}
	rep := specmatch.CheckStability(m, res.Matching)

	fmt.Fprintf(out, "market: %d sellers × %d buyers\n", m.M(), m.N())
	fmt.Fprintf(out, "rules: buyer %v (thr %.3g), seller %v (thr %.3g)\n", br, *buyerThres, sr, *sellerThres)
	fmt.Fprintf(out, "network: drop %.3f, delay ≤ %d slots\n", *drop, *delay)
	fmt.Fprintf(out, "terminated: %v after %d slots\n", res.Terminated, res.Slots)
	fmt.Fprintf(out, "welfare: %.4f (synchronous baseline %.4f, ratio %.3f)\n",
		res.Welfare, sync.Welfare, safeRatio(res.Welfare, sync.Welfare))
	fmt.Fprintf(out, "transitions: buyers mean slot %.1f (last %d, %d early), sellers mean slot %.1f (last %d, %d early)\n",
		res.MeanBuyerTransition, res.LastBuyerTransition, res.EarlyBuyerTransitions,
		res.MeanSellerTransition, res.LastSellerTransition, res.EarlySellerTransitions)
	fmt.Fprintf(out, "network stats: sent %d, delivered %d, dropped %d\n",
		res.Net.Sent, res.Net.Delivered, res.Net.Dropped)
	if res.DisagreedPairs > 0 {
		fmt.Fprintf(out, "voided pairings (stale views under loss): %d\n", res.DisagreedPairs)
	}
	fmt.Fprintf(out, "stability:\n%v\n", rep)
	if *metricsJSON != "" {
		return obs.WriteSnapshotFile(reg, *metricsJSON, out)
	}
	return nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
