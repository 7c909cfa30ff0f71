package online

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/trace"
)

// stepDigests replays gen's 64-step trace (seed 1) through an incremental
// session with a protocol recorder and returns one digest per step: a
// sha256, cut to 12 hex digits, of every event the step recorded, in order,
// followed by its StepStats.
func stepDigests(t *testing.T, cfg market.Config, gen func(*market.Market, int64, int) []Event) []string {
	t.Helper()
	m, err := market.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	s, err := NewSession(m, core.Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	seen := 0
	for k, ev := range gen(m, 1, 64) {
		st, err := s.Step(ev)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		h := sha256.New()
		events := rec.Events()
		for _, e := range events[seen:] {
			fmt.Fprintf(h, "%d %d %d %d %q\n", e.Round, e.Kind, e.Buyer, e.Seller, e.Note)
		}
		seen = len(events)
		fmt.Fprintf(h, "%+v\n", st)
		out = append(out, hex.EncodeToString(h.Sum(nil))[:12])
	}
	return out
}

// stepDigestsChurn, stepDigestsMobile and stepDigestsMultiDemand are the
// recorded step digests of TestIncrementalStepTraceDigests' three cases.
var stepDigestsChurn = []string{
	"1b12aa5703dd", "ed91bf87d6d0", "dcafbbaf1864", "6d8a176307d5", "dcdc0bc0debe", "b2ff735c6d51",
	"8f9103012882", "6e13a895f692", "5fa4560096e1", "1d0ab7a35f17", "ef8e31d76896", "8784f1d064b3",
	"6c0190f0028e", "72c59e3ed73b", "74e7b6688275", "168da51cf101", "6b0d1f795763", "a6416532e125",
	"33fc8af5ca22", "3af688ccd8bd", "5b04066a31d5", "22ba9a7a2e8e", "8b79ccc01afa", "ba9166b305f0",
	"f0437464ab10", "5815f1cbfa17", "c47417fda2df", "8966b6e7a6e6", "ee349c9e6748", "c7d79627c504",
	"93dff5194cf7", "197b6b7f56c4", "310aac0ad58e", "c6d598909bb7", "10378e554a2b", "da6ec050fec7",
	"cd5df417e2c6", "0c62e35d1d8f", "a582f3336fd6", "96625ba68249", "6d2282242253", "ef61dcd59262",
	"cd0fe0b5fe75", "e3d0f776e1ae", "be6a694b24a8", "fc5e845c4fe5", "b0103982df1e", "0e8481a140ba",
	"58bdcbb7e9e7", "22724e0306d6", "c977d198d634", "9289fd1260f7", "151172773979", "8839747845fb",
	"a544b4e46282", "3f43eee6bb9a", "b31a9c2f6618", "caba52ec9d38", "90c535959bf1", "87fa203de927",
	"cf6e243828fd", "7f8169ddd693", "5e23f2759a5c", "5ffb79f4c306",
}

var stepDigestsMobile = []string{
	"b5c543e1f86d", "d7b7dd1e3d17", "3f75860f897a", "72ff41e9613c", "e8edc017ff50", "246c8455ba50",
	"f9755f6db609", "0ee64fdf5700", "9fa2a264921b", "590829ce0d68", "fff8bb0c6b4b", "3025e0726101",
	"74c62ad6fb3f", "c57e018aabc5", "03083c910902", "0ce0d82c5796", "4b101f5e64c2", "2c1733e7be70",
	"485bb6e8f61f", "0261616dd0af", "a1b74137c727", "97a839c2bdf0", "5571f3c299e1", "2ceb3beff153",
	"53e8fd1d9193", "aa4fd1c9b281", "ff6c60d050b3", "bc1dd50f351a", "0cfeb4cfbf5d", "eb4d80f90846",
	"d78ae3113b41", "44969e00c490", "378872948d27", "a2ef201148d9", "97b3e3304ca4", "86b716c3680a",
	"09fcbc2f05c0", "ca1ea4a2318a", "0228b482d6a2", "9afab97478d4", "602bea8ba9be", "087321878d7a",
	"f3e6759cf127", "0271c6bf95f7", "c5c310f85fa1", "9d7c0977b8bf", "2b27761815f1", "a46920ae6af6",
	"d2ca89253c56", "f61dd9a7548c", "af307025faf9", "530d3a4b94a4", "714baa666552", "23d70ff0229d",
	"28912e17c805", "b5cb0d619021", "caa0c425ad10", "4fedaf819465", "b661e46e06a2", "f5b33f8d8a17",
	"f1593623ea35", "3c88687ed5c3", "8cb015ebf7d2", "944cfba4697f",
}

var stepDigestsMultiDemand = []string{
	"ccf58b4e33d3", "40c17062a886", "ad365eae7554", "0cba2fb03c85", "dcf557bd6e03", "a20e329b8e0e",
	"050c7720c4e3", "6aa3f1e3592e", "ab4eb4a2accb", "ff88045b784e", "74e2bc7fe077", "96882cf2ec63",
	"dc2f7b6ad1ed", "33c63e941c23", "deee4b2c7a18", "712319b74300", "e3439acb7836", "8f259273af8d",
	"19a2334cd26f", "e0c83ba4db0f", "6ad815627672", "7730f0cfde86", "da21ad9b35b3", "761ba7af3113",
	"e949d2ece2d7", "892668ef5631", "e63fadc55286", "6f94b40b1458", "3695f87f50aa", "785681f2287e",
	"2c15cd832dcd", "dec8337bdfac", "35b54054d92e", "a4637260c488", "189fe7ee0d6e", "dd5505fd6d95",
	"af0b6992b5e7", "168cf1e7243f", "ac25cc4b8605", "2b5c1e243599", "3731076c7f4d", "80935d5d4933",
	"561e8f85cab0", "f0f911b4f35b", "9f1c700a8da5", "551c0c392d77", "c84f53991fd1", "29928fb2a278",
	"24de3b08b6fe", "6b738bd81b81", "6dc79ad37bd4", "dc790896de18", "02c76874b6b6", "d54f2d51511a",
	"ee1897f2bb8d", "8125e5477386", "4f4be3d8928d", "591997dc8108", "7fafa556496c", "255ad5afdebb",
	"3d570de60f05", "9e8f687f0246", "f10cf8d932dd", "37fe01f28ecf",
}

// TestIncrementalStepTraceDigests pins the incremental engine's per-step
// protocol trace and StepStats on three 64-step traces: churn and mobile
// churn on the fig7a market (10×320, seed 1), and churn on a multi-demand
// market. The differential harness compares two paths that share Stage
// II's code, so a change that moves an event on both paths alike passes
// it; this test does not.
func TestIncrementalStepTraceDigests(t *testing.T) {
	demands := make([]int, 60)
	for j := range demands {
		demands[j] = 1 + j%3
	}
	fig7a := market.Config{Sellers: 10, Buyers: 320, Seed: 1}
	for _, c := range []struct {
		name string
		cfg  market.Config
		gen  func(*market.Market, int64, int) []Event
		want []string
	}{
		{"churn-fig7a", fig7a, SyntheticChurn, stepDigestsChurn},
		{"mobile-fig7a", fig7a, SyntheticMobileChurn, stepDigestsMobile},
		{"multi-demand", market.Config{
			Sellers: 6, Buyers: 60, Seed: 1,
			SellerChannels: []int{2, 1, 3, 2, 1, 3},
			BuyerDemands:   demands,
		}, SyntheticChurn, stepDigestsMultiDemand},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := stepDigests(t, c.cfg, c.gen)
			if len(got) != len(c.want) {
				t.Fatalf("%d step digests, %d recorded", len(got), len(c.want))
			}
			for k := range got {
				if got[k] != c.want[k] {
					t.Fatalf("step %d: digest %s, recorded %s", k, got[k], c.want[k])
				}
			}
		})
	}
}
