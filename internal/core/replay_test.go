package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/mwis"
	"specmatch/internal/trace"
)

// runTraced executes core.Run with a recorder attached and returns the
// result plus the full protocol trace.
func runTraced(t *testing.T, m *market.Market, opts core.Options) (*core.Result, []trace.Event) {
	t.Helper()
	rec := trace.NewRecorder()
	opts.Recorder = rec
	res, err := core.Run(m, opts)
	if err != nil {
		t.Fatalf("core.Run(%+v): %v", opts, err)
	}
	return res, rec.Events()
}

// assertIdenticalRun fails unless got reproduces want exactly: same matching,
// same welfare and counts, same per-stage statistics, same cache counters,
// and the same protocol trace event for event. The trace comparison is the
// strongest form of the determinism guarantee — not just the same fixed
// point, but the same run.
func assertIdenticalRun(t *testing.T, label string,
	wantRes *core.Result, wantTrace []trace.Event,
	gotRes *core.Result, gotTrace []trace.Event) {
	t.Helper()
	if !gotRes.Matching.Equal(wantRes.Matching) {
		t.Errorf("%s: matching differs:\n got %v\nwant %v", label, gotRes.Matching, wantRes.Matching)
	}
	if gotRes.Welfare != wantRes.Welfare || gotRes.Matched != wantRes.Matched {
		t.Errorf("%s: welfare/matched differ: got (%v, %d), want (%v, %d)",
			label, gotRes.Welfare, gotRes.Matched, wantRes.Welfare, wantRes.Matched)
	}
	if gotRes.StageI != wantRes.StageI || gotRes.Phase1 != wantRes.Phase1 || gotRes.Phase2 != wantRes.Phase2 {
		t.Errorf("%s: stage stats differ:\n got %+v %+v %+v\nwant %+v %+v %+v",
			label, gotRes.StageI, gotRes.Phase1, gotRes.Phase2,
			wantRes.StageI, wantRes.Phase1, wantRes.Phase2)
	}
	if gotRes.Cache != wantRes.Cache {
		t.Errorf("%s: cache stats differ: got %+v, want %+v", label, gotRes.Cache, wantRes.Cache)
	}
	if len(gotTrace) != len(wantTrace) {
		t.Errorf("%s: trace length differs: got %d events, want %d", label, len(gotTrace), len(wantTrace))
		return
	}
	if !reflect.DeepEqual(gotTrace, wantTrace) {
		for k := range wantTrace {
			if gotTrace[k] != wantTrace[k] {
				t.Errorf("%s: trace diverges at event %d: got %v, want %v", label, k, gotTrace[k], wantTrace[k])
				return
			}
		}
	}
}

// traceDigest runs the engine with a recorder and hashes the whole run: every
// protocol event in order, then the Result's per-stage statistics, welfare,
// matched count, cache counters and matching.
func traceDigest(t *testing.T, m *market.Market, opts core.Options) string {
	t.Helper()
	res, events := runTraced(t, m, opts)
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintf(h, "%d %d %d %d %q\n", ev.Round, ev.Kind, ev.Buyer, ev.Seller, ev.Note)
	}
	fmt.Fprintf(h, "%+v %+v %+v %v %d %+v\n", res.StageI, res.Phase1, res.Phase2, res.Welfare, res.Matched, res.Cache)
	for j := 0; j < res.Matching.N(); j++ {
		fmt.Fprintf(h, "%d ", res.Matching.SellerOf(j))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunTraceDigests pins every run's full protocol trace and Result (see
// traceDigest) across many seeds and MWIS algorithms, virtual-expansion
// markets, and three markets at the paper's largest evaluation scale
// (Fig. 7b/8b: M = 16, N = 500). The digests come from an engine that
// decided every seller of a round before applying any, so they show that
// deciding and applying each seller in turn moves no event.
func TestRunTraceDigests(t *testing.T) {
	small := func(seed int64) market.Config { return market.Config{Sellers: 6, Buyers: 40, Seed: seed} }
	multiDemand := func(seed int64) market.Config {
		return market.Config{
			Sellers: 4, Buyers: 12,
			SellerChannels: []int{2, 1, 3, 2},
			BuyerDemands:   []int{1, 2, 1, 3, 1, 2, 1, 1, 2, 1, 2, 1},
			Seed:           seed,
		}
	}
	fig7 := func(seed int64) market.Config { return market.Config{Sellers: 16, Buyers: 500, Seed: seed} }
	for _, tc := range []struct {
		name  string
		cfg   func(seed int64) market.Config
		alg   mwis.Algorithm
		seed0 int64
		long  bool
		// want[k] is the digest of the run at seed seed0+k.
		want []string
	}{
		{name: "gwmin", cfg: small, alg: mwis.GWMIN, want: []string{
			"69152d57e84d0994dddc01abaadfb61855a928dcbee7cbf9bf0fe7ebf39a4155",
			"a01749f2e53edb88a2687d5d3f78f5b730318fb2eac624115178d53025e9a160",
			"33ce17cfa407564671b77ceac3810995cd88d6b0cb87f462aca9154be252cf85",
			"5218b1e47f7a8daba2e51a56bc730a58f27af5fb6a7b4cf1f46af87802d45c27",
			"681ccf435d232e7614a6163154c9991de606ecc5fb962f157013a3e60da703e1",
			"3a731e1cf159e72efba4b556efe6abd20db13cb4a962d410146d8b7debcdaa98",
			"966de536e95c4a274a0156c9f4153701beb90eed68c388679443d222ea542190",
			"493ade024f70770dfab51ba79bf67f11fbda2a7e57a3141acac909316893f4ad",
			"87f22556c5379ae97d829982231dbe873fdd856c1a34c1607f4dfe4663ddcec5",
			"c1434c1ed084ed8a795669fc2400b093fe0d149c177bb81bdab6c6afc674c94a",
			"74b89db1ac0d7114336bbde7b60045f78522cb23677e50ce1212a3122e357293",
			"6306acdaba40ceca11a19eb6e7b8945281eba16090f9ccc7f4cbc2a8031825ea",
			"33ea7f4edbabaaee8ce4dc433d7d14de4a97e627032714f961f2b61cbbcbe1bb",
			"643a2c49fc989faac35448b0c14f3c7059def82094f76bc1baa21c9a87403dff",
			"888df3c78974cdb146e047992301ced51c1ab1c4c2919a75ad23ec7eb4290a9b",
			"d532a30247b3dfb5f3c3a2069a17fb7e5ad8dc92353337f2aed2cfab426c3177",
			"010f8f58bbe83aa190d2daa127896a7619bf7108e7bc546469992f1f78352287",
			"fd20336bfa1bf5ff9682a15f13229897d53b1cab953f41014c8e8c1548a19928",
			"75eecf89c1056fbe7b6187d37510a467cce0c211456b67a6fe8c351f3e64e9b7",
			"6676332487184903af28f9447c6a63bb0709bca005453f3edb303ece58b8fe42",
		}},
		{name: "gwmin2", cfg: small, alg: mwis.GWMIN2, want: []string{
			"69152d57e84d0994dddc01abaadfb61855a928dcbee7cbf9bf0fe7ebf39a4155",
			"a01749f2e53edb88a2687d5d3f78f5b730318fb2eac624115178d53025e9a160",
			"33ce17cfa407564671b77ceac3810995cd88d6b0cb87f462aca9154be252cf85",
			"063c8ef61e8142a9e31e6debda56827f5507e99d11a93c5e63e6d5d89258a35d",
			"681ccf435d232e7614a6163154c9991de606ecc5fb962f157013a3e60da703e1",
			"3a731e1cf159e72efba4b556efe6abd20db13cb4a962d410146d8b7debcdaa98",
			"966de536e95c4a274a0156c9f4153701beb90eed68c388679443d222ea542190",
			"493ade024f70770dfab51ba79bf67f11fbda2a7e57a3141acac909316893f4ad",
			"87f22556c5379ae97d829982231dbe873fdd856c1a34c1607f4dfe4663ddcec5",
			"c1434c1ed084ed8a795669fc2400b093fe0d149c177bb81bdab6c6afc674c94a",
			"74b89db1ac0d7114336bbde7b60045f78522cb23677e50ce1212a3122e357293",
			"6306acdaba40ceca11a19eb6e7b8945281eba16090f9ccc7f4cbc2a8031825ea",
			"33ea7f4edbabaaee8ce4dc433d7d14de4a97e627032714f961f2b61cbbcbe1bb",
			"643a2c49fc989faac35448b0c14f3c7059def82094f76bc1baa21c9a87403dff",
			"888df3c78974cdb146e047992301ced51c1ab1c4c2919a75ad23ec7eb4290a9b",
			"d532a30247b3dfb5f3c3a2069a17fb7e5ad8dc92353337f2aed2cfab426c3177",
			"010f8f58bbe83aa190d2daa127896a7619bf7108e7bc546469992f1f78352287",
			"fd20336bfa1bf5ff9682a15f13229897d53b1cab953f41014c8e8c1548a19928",
			"75eecf89c1056fbe7b6187d37510a467cce0c211456b67a6fe8c351f3e64e9b7",
			"6676332487184903af28f9447c6a63bb0709bca005453f3edb303ece58b8fe42",
		}},
		{name: "greedy-best", cfg: small, alg: mwis.GreedyBest, want: []string{
			"69152d57e84d0994dddc01abaadfb61855a928dcbee7cbf9bf0fe7ebf39a4155",
			"a01749f2e53edb88a2687d5d3f78f5b730318fb2eac624115178d53025e9a160",
			"33ce17cfa407564671b77ceac3810995cd88d6b0cb87f462aca9154be252cf85",
			"5218b1e47f7a8daba2e51a56bc730a58f27af5fb6a7b4cf1f46af87802d45c27",
			"681ccf435d232e7614a6163154c9991de606ecc5fb962f157013a3e60da703e1",
			"af0dee03c5e65bbe1e96a5905fae9977ad7aed9360a483624bca58fa8bda7f26",
			"966de536e95c4a274a0156c9f4153701beb90eed68c388679443d222ea542190",
			"1ad2bda9760a6fc43219346145db7511ea1218178ef3a7c47fa606a8d72687c6",
			"bf8dda0eec0b82ccb2734c52b5b1413c498fef95e7a973306f772e3b7d1b5e2f",
			"c1434c1ed084ed8a795669fc2400b093fe0d149c177bb81bdab6c6afc674c94a",
			"74b89db1ac0d7114336bbde7b60045f78522cb23677e50ce1212a3122e357293",
			"6306acdaba40ceca11a19eb6e7b8945281eba16090f9ccc7f4cbc2a8031825ea",
			"33ea7f4edbabaaee8ce4dc433d7d14de4a97e627032714f961f2b61cbbcbe1bb",
			"643a2c49fc989faac35448b0c14f3c7059def82094f76bc1baa21c9a87403dff",
			"888df3c78974cdb146e047992301ced51c1ab1c4c2919a75ad23ec7eb4290a9b",
			"d532a30247b3dfb5f3c3a2069a17fb7e5ad8dc92353337f2aed2cfab426c3177",
			"010f8f58bbe83aa190d2daa127896a7619bf7108e7bc546469992f1f78352287",
			"fd20336bfa1bf5ff9682a15f13229897d53b1cab953f41014c8e8c1548a19928",
			"75eecf89c1056fbe7b6187d37510a467cce0c211456b67a6fe8c351f3e64e9b7",
			"6a6dcbc4ab82f8d37b4fa13c3b3f82dfd803666b953991522b833c5308531256",
		}},
		{name: "multi-demand", cfg: multiDemand, want: []string{
			"ff1dff2bc8fde584e1c1f2e945b1206a0fdf4ec130ff05db42d5e5edf09f85bb",
			"f6097c8ab22e76e26e255a4a34d38ea121dba3bb8665fa0fc84ce47f8ec35c1b",
			"70e79601b0d3b61cd667c98ebaf7620f8d01d86ecb058d9286be7950c83567ff",
			"d8262545559693565375dacb434fc8f82e43ba125123152922fec079882bc267",
			"d3c42c21328411c3298bad1598f9ab8fecd800b4d67a0107649ac08e55c2f6f5",
			"7c29435058fa930b3c618e0cc49983cd6aa1ab1ff21976f841f67a3cbf0e9609",
			"51de2e9ffa46f84c2cc8c061d63f6e0483b61d233ee14aba9afb81ac4aa0afb8",
			"13b6e600918e7cf9347c4e30ffab1ea38e7527ff557677c5b5348919ba09225b",
			"6b69209c6c43dad95860fcfaf1e5f15a5d10307a45ac8b591c16640a53bd0305",
			"7ffc1b5e67dc79585990365cec1b25925a32b56fd996ea9584d9f1b3036c8f50",
			"b258349cd1b8ba31ba92d3d91f9c6b0365e9a5a06695611bec4d0455b799317d",
			"dfea38c97b600b4bfcd30b3fc7d3587b1e10757372da73b7a400912e04fc0031",
			"a0e94093170dc9e03bb9931801ed8a214646a95bfe6037a94fecc1c79d45e4d6",
			"2c8ce464e46433e446b383a01cb14ddd6fb0cd885c432c7cb31e49b6edf3fd7a",
			"8707b8273c18ded7eede297677193e8f3b0bc3e26fe333bfd49108649b33e707",
			"9acc46c728c96bc66caf331cecc034fce5afe48c37f3a9eaad1ee60fa6b3756f",
			"10622d8bcccaf06cd96cafec69bbda34369ff5a58e6b79e083bd159d65f3a4f6",
			"523c88594228907094b78d75d76694b7146b676b52217a19fbff16c24611b176",
			"c386dd7fd5c55af62637e9544c75557eb6dd845a6511ed6f57941368fe72a0bd",
			"d1bcab8ecb846feb7f1e04a1009c5c10fcc568d71f50c1842737d296bec25cb3",
		}},
		{name: "fig7b", cfg: fig7, seed0: 1, long: true, want: []string{
			"5ccc93f63f6399aabe1d2074e6f4b8ac41ba28e8b077211d1acf7c936cf07cfb",
			"29f33b20ff0a1762ef307c10ead6167059e74deb8d53ab5da6c5448d70dce621",
			"13654d213534babadd772bfe4b44cdd80648f508b40184b3693a88f87605d6cf",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("skipping Fig. 7-scale digests in -short mode")
			}
			for k, want := range tc.want {
				seed := tc.seed0 + int64(k)
				m := generate(t, tc.cfg(seed))
				if got := traceDigest(t, m, core.Options{MWIS: tc.alg}); got != want {
					t.Errorf("seed %d: run digest %s, want %s", seed, got, want)
				}
			}
		})
	}
}

// TestCoalitionCacheEquivalence: disabling the coalition cache must not
// change the run at all, and on generated markets the enabled cache must
// actually avoid work (the independent-set fast path fires; Stage I's last
// quiet rounds always present singleton or interference-free candidate
// sets).
func TestCoalitionCacheEquivalence(t *testing.T) {
	totalAvoided := 0
	for seed := int64(0); seed < 10; seed++ {
		m := generate(t, market.Config{Sellers: 8, Buyers: 80, Seed: seed})
		onRes, onTrace := runTraced(t, m, core.Options{})
		offRes, offTrace := runTraced(t, m, core.Options{DisableCoalitionCache: true})
		if offRes.Cache != (core.CacheStats{}) {
			t.Errorf("seed %d: disabled cache reports stats %+v", seed, offRes.Cache)
		}
		// Compare everything except the cache counters, which necessarily
		// differ between the two configurations.
		offRes.Cache = onRes.Cache
		assertIdenticalRun(t, "cache on/off", onRes, onTrace, offRes, offTrace)
		totalAvoided += onRes.Cache.Hits + onRes.Cache.Independent
	}
	if totalAvoided == 0 {
		t.Error("coalition cache avoided no solves across 10 markets; fast path is dead")
	}
}

// TestStageIRoundGuardMultiDemand locks in the round-guard fix: the Stage I
// bound must be derived from virtual participant counts (total preference
// list length after dummy expansion), not physical ones. This market — one
// physical seller with 6 channels, two physical buyers demanding 5 channels
// each — legitimately needs more Stage I rounds than the physical-count
// bound M_phys*N_phys + 2 = 4 would allow, so the old guard would abort a
// convergent run.
func TestStageIRoundGuardMultiDemand(t *testing.T) {
	const physSellers, physBuyers = 1, 2
	m := generate(t, market.Config{
		Sellers:        physSellers,
		Buyers:         physBuyers,
		SellerChannels: []int{6},
		BuyerDemands:   []int{5, 5},
		Seed:           3,
	})
	if m.M() != 6 || m.N() != 10 {
		t.Fatalf("virtual expansion: got M=%d N=%d, want 6 and 10", m.M(), m.N())
	}
	res, err := core.Run(m, core.Options{})
	if err != nil {
		t.Fatalf("multi-demand run aborted: %v", err)
	}
	physicalBound := physSellers*physBuyers + 2
	if res.StageI.Rounds <= physicalBound {
		t.Fatalf("stage I took %d rounds, within the physical-count bound %d; market no longer exercises the guard",
			res.StageI.Rounds, physicalBound)
	}
}
