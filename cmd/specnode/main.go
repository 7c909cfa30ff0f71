// Command specnode deploys the matching protocol over real TCP, one process
// per role: a hub coordinates slots, and each buyer or seller runs its own
// state machine against a shared market file. All processes must be given
// the same market JSON (the public parameters: prices are each agent's own,
// but the simulation distributes the full instance for simplicity).
//
// Single-machine demo (ephemeral port, all roles in one process):
//
//	specgen -sellers 3 -buyers 8 > market.json
//	specnode -market market.json -role all
//
// Multi-process deployment:
//
//	specnode -market market.json -role hub  -addr 127.0.0.1:7600 &
//	specnode -market market.json -role seller -index 0 -addr 127.0.0.1:7600 &
//	...one process per participant...
//	specnode -market market.json -role buyer -index 4 -addr 127.0.0.1:7600
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"specmatch/internal/agent"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/server"
	"specmatch/internal/trace"
	"specmatch/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "specnode:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("specnode", flag.ContinueOnError)
	var (
		marketPath  = fs.String("market", "", "market JSON path ('-' = stdin); required")
		role        = fs.String("role", "all", "hub, buyer, seller, or all (in-process market)")
		index       = fs.Int("index", 0, "participant index for -role buyer/seller")
		addr        = fs.String("addr", "", "hub address (listen for hub, dial for nodes); empty = ephemeral localhost for hub/all")
		buyerRule   = fs.String("buyer-rule", "rule-ii", "buyer transition rule: default, rule-i, rule-ii")
		sellerRule  = fs.String("seller-rule", "probabilistic", "seller transition rule: default, probabilistic")
		debugAddr   = fs.String("debug-addr", "", "serve /debug/metrics (JSON), /debug/trace and /debug/pprof/* on this address; empty = disabled")
		metricsJSON = fs.String("metrics-json", "", "write a metrics snapshot JSON to this path ('-' = stdout) on success")
		flightCap   = fs.Int("flight", 1<<16, "flight-recorder capacity in spans, a bounded ring always recording (0 disables tracing)")
		traceDump   = fs.String("trace-dump", "specnode-trace.json", "flight-recorder dump path, written on SIGQUIT (and on success when set explicitly)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help already printed usage
		}
		return err
	}
	// An exit dump is only written when the operator asked for one; the
	// default path exists so a bare SIGQUIT still lands somewhere predictable.
	dumpOnExit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "trace-dump" {
			dumpOnExit = true
		}
	})
	if *marketPath == "" {
		return fmt.Errorf("-market is required")
	}

	var data []byte
	var err error
	if *marketPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*marketPath)
	}
	if err != nil {
		return fmt.Errorf("reading market: %w", err)
	}
	var m market.Market
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("decoding market: %w", err)
	}

	br, err := agent.ParseBuyerRule(*buyerRule)
	if err != nil {
		return err
	}
	sr, err := agent.ParseSellerRule(*sellerRule)
	if err != nil {
		return err
	}
	// One registry serves every role in this process: agent-, wire- and
	// hub-level metrics all land in the same namespace (names in
	// PROTOCOL.md), which is what both -debug-addr and -metrics-json expose.
	var reg *obs.Registry
	if *debugAddr != "" || *metricsJSON != "" {
		reg = obs.NewRegistry()
	}
	// The flight recorder is always on (like the hub/node metrics, it is a
	// bounded ring; the cost is a few atomic ops per span) so a hung or
	// misbehaving deployment can be inspected after the fact: SIGQUIT dumps
	// the ring without exiting, and -debug-addr serves it at /debug/trace.
	var fl *trace.Flight
	if *flightCap > 0 {
		fl = trace.NewFlight(*flightCap)
	}
	stopQuit := dumpOnSIGQUIT(fl, *traceDump, out)
	defer stopQuit()
	var debug *server.HTTPServer
	if *debugAddr != "" {
		// The debug endpoint gets the windowed series view too: a 1s rollup
		// over the process registry, flushed when the debug server stops.
		ru := obs.NewRollup(reg, time.Second, 300)
		ru.Start()
		defer ru.Stop()
		var err error
		debug, err = server.ListenAndServe(*debugAddr, server.DebugMux(reg, fl, ru))
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Fprintf(out, "debug server on http://%s/debug/metrics\n", debug.Addr())
	}

	nodeCfg := wire.NodeConfig{
		Agent:   agent.Config{BuyerRule: br, SellerRule: sr, Metrics: reg},
		Metrics: reg,
		Flight:  fl,
	}
	hubCfg := wire.HubConfig{Addr: *addr, Metrics: reg, Flight: fl}

	runRole := func() error {
		switch *role {
		case "all":
			report, err := wire.MatchOverTCP(&m, nodeCfg, hubCfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "market quiesced after %d slots, %d messages relayed\n", report.Slots, report.Messages)
			fmt.Fprintf(out, "matching: %v\n", report.Matching)
			fmt.Fprintf(out, "welfare: %.4f\n", report.Welfare)
			return nil
		case "hub":
			hub, err := wire.NewHub(&m, hubCfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "hub listening on %s, waiting for %d nodes\n", hub.Addr(), m.M()+m.N())
			report, err := hub.Serve(&m)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "market quiesced after %d slots, %d messages relayed\n", report.Slots, report.Messages)
			fmt.Fprintf(out, "matching: %v\n", report.Matching)
			fmt.Fprintf(out, "welfare: %.4f\n", report.Welfare)
			return nil
		case "buyer":
			if *addr == "" {
				return fmt.Errorf("-addr is required for node roles")
			}
			matched, err := wire.RunBuyerNode(*addr, *index, &m, nodeCfg)
			if err != nil {
				return err
			}
			if matched == market.Unmatched {
				fmt.Fprintf(out, "buyer %d: unmatched\n", *index)
			} else {
				fmt.Fprintf(out, "buyer %d: matched to seller %d (price %.4f)\n", *index, matched, m.Price(matched, *index))
			}
			return nil
		case "seller":
			if *addr == "" {
				return fmt.Errorf("-addr is required for node roles")
			}
			coalition, err := wire.RunSellerNode(*addr, *index, &m, nodeCfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "seller %d: coalition %v\n", *index, coalition)
			return nil
		default:
			return fmt.Errorf("unknown role %q (want hub, buyer, seller or all)", *role)
		}
	}
	runErr := runRole()
	if debug != nil {
		// Shut the debug server down cleanly so the port is released and a
		// serve loop that died mid-run surfaces instead of being swallowed.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := debug.Shutdown(ctx); err != nil && runErr == nil {
			runErr = fmt.Errorf("debug server: %w", err)
		}
	}
	if runErr != nil {
		return runErr
	}
	if dumpOnExit {
		dumpFlight(fl, *traceDump, out, "exit")
	}
	if *metricsJSON != "" {
		return obs.WriteSnapshotFile(reg, *metricsJSON, out)
	}
	return nil
}

// dumpFlight writes the flight recorder as Chrome trace-event JSON,
// atomically (see trace.WriteChromeFlightFile). No-op with a nil flight or
// empty path.
func dumpFlight(fl *trace.Flight, path string, out io.Writer, reason string) {
	if fl == nil || path == "" {
		return
	}
	if err := trace.WriteChromeFlightFile(path, fl); err != nil {
		fmt.Fprintf(out, "flight recorder: dump failed: %v\n", err)
		return
	}
	fmt.Fprintf(out, "flight recorder: dumped %d spans to %s (%s)\n", len(fl.Snapshot()), path, reason)
}

// dumpOnSIGQUIT installs a handler that dumps the flight recorder on each
// SIGQUIT without exiting. The returned stop function uninstalls it.
func dumpOnSIGQUIT(fl *trace.Flight, path string, out io.Writer) func() {
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-quit:
				dumpFlight(fl, path, out, "SIGQUIT")
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(quit)
		close(done)
	}
}
