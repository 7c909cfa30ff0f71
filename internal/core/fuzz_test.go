package core_test

import (
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/mwis"
	"specmatch/internal/stability"
)

// FuzzRun drives the full two-stage engine over fuzzer-chosen market shapes
// and checks the §III-C guarantees on every output:
//
//   - the matching is valid and interference-free (Prop. 1's invariant),
//   - individually rational (Prop. 3),
//   - Nash stable (Prop. 4) — on single-demand markets only: under virtual
//     expansion the one-shot Phase 2 screening can leave a residual
//     deviation when a coalition slot opens late (a member departs via an
//     invitation elsewhere after the seller already screened her list), and
//     the fuzzer finds such multi-demand counterexamples (e.g. seed -378,
//     M=6 physical sellers with 1-2 channels, N=33 buyers with 1-2 demands,
//     GWMIN2), reproducibly and also under the pre-refactor sequential
//     engine. The repo's deterministic tests assert Prop. 4 on the
//     single-demand generator, matching the paper's evaluation setup.
//
// It also checks that the cache-disabled engine produces exactly the run of
// the default — same matching, same welfare, same per-stage statistics.
func FuzzRun(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(10), uint8(0), uint8(0))
	f.Add(int64(7), uint8(5), uint8(25), uint8(1), uint8(0))
	f.Add(int64(42), uint8(2), uint8(8), uint8(4), uint8(1))
	f.Add(int64(-9), uint8(6), uint8(39), uint8(2), uint8(2))
	f.Add(int64(1234), uint8(1), uint8(12), uint8(3), uint8(3))

	f.Fuzz(func(t *testing.T, seed int64, sellers, buyers, algPick, demandPick uint8) {
		numSellers := 1 + int(sellers)%6
		numBuyers := 1 + int(buyers)%40

		// The exact solver is exponential; only allow it on tiny markets.
		algs := []mwis.Algorithm{mwis.GWMIN, mwis.GWMIN2, mwis.GWMAX, mwis.GreedyBest}
		if numBuyers <= 12 {
			algs = append(algs, mwis.Exact)
		}
		alg := algs[int(algPick)%len(algs)]

		cfg := market.Config{Sellers: numSellers, Buyers: numBuyers, Seed: seed}
		// Exercise virtual expansion: multi-channel sellers / multi-demand
		// buyers stress the Stage I round guard and the dummy-market paths.
		switch demandPick % 4 {
		case 1:
			cfg.SellerChannels = make([]int, numSellers)
			for i := range cfg.SellerChannels {
				cfg.SellerChannels[i] = 1 + (i+int(demandPick))%3
			}
		case 2:
			cfg.BuyerDemands = make([]int, numBuyers)
			for j := range cfg.BuyerDemands {
				cfg.BuyerDemands[j] = 1 + (j+int(demandPick))%3
			}
		case 3:
			cfg.SellerChannels = make([]int, numSellers)
			cfg.BuyerDemands = make([]int, numBuyers)
			for i := range cfg.SellerChannels {
				cfg.SellerChannels[i] = 1 + i%2
			}
			for j := range cfg.BuyerDemands {
				cfg.BuyerDemands[j] = 1 + j%2
			}
		}
		m, err := market.Generate(cfg)
		if err != nil {
			t.Fatalf("generate %+v: %v", cfg, err)
		}

		ref, err := core.Run(m, core.Options{MWIS: alg})
		if err != nil {
			t.Fatalf("run: %v", err)
		}

		// §III-C invariants on the reference output.
		if err := ref.Matching.Validate(); err != nil {
			t.Errorf("invalid matching: %v", err)
		}
		if v := stability.CheckInterferenceFree(m, ref.Matching); len(v) > 0 {
			t.Errorf("interference violations: %v", v)
		}
		if v := stability.CheckIndividualRational(m, ref.Matching); len(v) > 0 {
			t.Errorf("IR violations (Prop. 3): %v", v)
		}
		if demandPick%4 == 0 { // single-demand market: Prop. 4 applies
			if v := stability.CheckNashStable(m, ref.Matching); len(v) > 0 {
				t.Errorf("Nash deviations (Prop. 4): %v", v)
			}
		}

		// Cache identity: the cache-disabled run must reproduce the
		// reference run exactly.
		opts := core.Options{MWIS: alg, DisableCoalitionCache: true}
		got, err := core.Run(m, opts)
		if err != nil {
			t.Fatalf("run %+v: %v", opts, err)
		}
		if !got.Matching.Equal(ref.Matching) {
			t.Errorf("matching differs under %+v:\n got %v\nwant %v", opts, got.Matching, ref.Matching)
		}
		if got.Welfare != ref.Welfare || got.Matched != ref.Matched {
			t.Errorf("welfare/matched differ under %+v: got (%v, %d), want (%v, %d)",
				opts, got.Welfare, got.Matched, ref.Welfare, ref.Matched)
		}
		if got.StageI != ref.StageI || got.Phase1 != ref.Phase1 || got.Phase2 != ref.Phase2 {
			t.Errorf("stage stats differ under %+v:\n got %+v %+v %+v\nwant %+v %+v %+v",
				opts, got.StageI, got.Phase1, got.Phase2, ref.StageI, ref.Phase1, ref.Phase2)
		}
	})
}
