package replica_test

// End-to-end replication tests, built on the same pattern as the server's
// TestReplayEquivalenceAcrossPrefixes: a scripted, seeded workload runs
// against a durable leader while a follower tails the real HTTP stream
// endpoints. The follower joins at an arbitrary prefix (exercising file
// catch-up and checkpoint-ship), is killed and restarted mid-script
// (resuming from its own WAL), and must end bit-for-bit equal to the
// leader — snapshots compared with reflect.DeepEqual, and post-promote
// StepStats identical to the leader's for the same event.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"specmatch/internal/geom"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/online"
	"specmatch/internal/replica"
	"specmatch/internal/server"
)

// node bundles one in-process specserved: server, listener, and (for
// followers) the replication tailer.
type node struct {
	srv *server.Server
	ts  *httptest.Server
	fol *replica.Follower
	reg *obs.Registry
}

func (n *node) url() string { return n.ts.URL }

// close tears the node down in promotion order: tailer first, then
// streams, then the store.
func (n *node) close() {
	if n.fol != nil {
		n.fol.Stop()
		n.fol = nil
	}
	n.ts.Close()
	n.srv.Drain()
}

func startNode(t *testing.T, dir string, shards, ckptEvery int) *node {
	t.Helper()
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Shards:          shards,
		DataDir:         dir,
		CheckpointEvery: ckptEvery,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &node{srv: srv, ts: httptest.NewServer(srv.Handler()), reg: reg}
}

// follow turns the node into a follower of leaderURL, resuming from the
// node's own recovered WAL positions — exactly what specserved -follow
// does.
func (n *node) follow(t *testing.T, leaderURL string) {
	t.Helper()
	sts := n.srv.Store().ShardStatuses()
	from := make([]uint64, len(sts))
	for i, s := range sts {
		from[i] = s.DurableLSN
	}
	fol, err := replica.Start(replica.Config{
		Leader:       leaderURL,
		Shards:       len(sts),
		From:         from,
		Apply:        n.srv.Store().ApplyReplicated,
		Metrics:      n.reg,
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.fol = fol
	n.srv.BecomeFollower(leaderURL, fol.Status, fol.Stop)
}

// waitSynced blocks until the follower's durable LSNs equal the leader's
// on every shard. The leader must be quiescent (writes stopped): acked
// implies durable, so its positions are final.
func waitSynced(t *testing.T, leader, follower *server.Store) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ls, fs := leader.ShardStatuses(), follower.ShardStatuses()
		synced := len(ls) == len(fs)
		for i := range ls {
			if !synced || fs[i].DurableLSN != ls[i].DurableLSN {
				synced = false
				break
			}
		}
		if synced {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: leader %+v follower %+v", ls, fs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func snapshotAll(t *testing.T, st *server.Store) map[string]online.Snapshot {
	t.Helper()
	ctx := context.Background()
	ids, err := st.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]online.Snapshot, len(ids))
	for _, id := range ids {
		snap, err := st.Get(ctx, id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		out[id] = snap
	}
	return out
}

// The core guarantee: a follower that joined at an arbitrary prefix, was
// killed and restarted mid-stream (resuming from its own WAL), and tailed
// through leader checkpoint rotations ends bit-for-bit equal to the
// leader — across seeds. After promotion it serves writes whose StepStats
// match the leader's for the same events.
func TestFollowerEquivalenceAcrossPrefixes(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const fleet, buyers, nops = 4, 10, 90
			r := rand.New(rand.NewSource(seed))
			ctx := context.Background()

			leaderDir, followerDir := t.TempDir(), t.TempDir()
			// CheckpointEvery 13 forces several leader log rotations while
			// the follower is attached — streaming must ride through them.
			leader := startNode(t, leaderDir, 2, 13)
			defer leader.close()

			ids := make([]string, fleet)
			for k := 0; k < fleet; k++ {
				m, err := market.Generate(market.Config{Sellers: 3, Buyers: buyers, Seed: seed*100 + int64(k)})
				if err != nil {
					t.Fatal(err)
				}
				id, _, err := leader.srv.Store().Create(ctx, m)
				if err != nil {
					t.Fatal(err)
				}
				ids[k] = id
			}

			// The follower joins after joinAt ops (behind the leader's
			// checkpoint horizon by then — catch-up ships a snapshot) and is
			// killed/restarted after killAt more.
			joinAt, killAt := nops/3+int(seed), 2*nops/3
			var follower *node
			for i := 0; i < nops; i++ {
				if i == joinAt {
					follower = startNode(t, followerDir, 2, 13)
					follower.follow(t, leader.url())
				}
				if i == killAt {
					follower.close()
					follower = startNode(t, followerDir, 2, 13)
					follower.follow(t, leader.url())
				}
				id := ids[r.Intn(fleet)]
				switch p := r.Float64(); {
				case p < 0.9:
					ev := online.Event{Arrive: []int{r.Intn(buyers)}, Depart: []int{r.Intn(buyers)}}
					if r.Float64() < 0.2 {
						ev.ChannelDown = []int{r.Intn(3)}
					}
					if r.Float64() < 0.3 {
						// Mobility rides the stream too: followers replay the v2
						// step bodies and must rewire identically.
						ev.Move = []online.BuyerMove{{Buyer: r.Intn(buyers),
							To: geom.Point{X: r.Float64() * 10, Y: r.Float64() * 10}}}
					}
					if _, err := leader.srv.Store().Step(ctx, id, ev); err != nil {
						t.Fatalf("op %d: step: %v", i, err)
					}
				default:
					if _, _, err := leader.srv.Store().Rebuild(ctx, id, true); err != nil {
						t.Fatalf("op %d: rebuild: %v", i, err)
					}
				}
			}
			defer follower.close()

			waitSynced(t, leader.srv.Store(), follower.srv.Store())
			want := snapshotAll(t, leader.srv.Store())
			got := snapshotAll(t, follower.srv.Store())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("follower state differs from leader:\n got %+v\nwant %+v", got, want)
			}

			// Promote over HTTP and prove the replicated state is live: the
			// same event on both nodes yields identical StepStats.
			resp, err := http.Post(follower.url()+"/v1/replica/promote", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("promote: HTTP %d", resp.StatusCode)
			}
			for _, id := range ids {
				// The move probes replicated geometry, not just matching state:
				// identical Displaced counts require identical post-replay
				// interference graphs and buyer positions on both nodes.
				ev := online.Event{Arrive: []int{1}, Depart: []int{2},
					Move: []online.BuyerMove{{Buyer: 3, To: geom.Point{X: 4.5, Y: 4.5}}}}
				sL, errL := leader.srv.Store().Step(ctx, id, ev)
				sF, errF := follower.srv.Store().Step(ctx, id, ev)
				if (errL == nil) != (errF == nil) {
					t.Fatalf("post-promote step err divergence on %s: %v vs %v", id, errL, errF)
				}
				if sL != sF {
					t.Fatalf("post-promote StepStats divergence on %s: %+v vs %+v", id, sL, sF)
				}
			}
		})
	}
}

// A follower joining from LSN 0 after the leader's logs rotated past the
// truncation horizon must be seeded by a shipped checkpoint, counted on
// replica.checkpoint_ships, and still end equal to the leader.
func TestCheckpointShipBelowHorizon(t *testing.T) {
	ctx := context.Background()
	leader := startNode(t, t.TempDir(), 1, 5)
	defer leader.close()

	m, err := market.Generate(market.Config{Sellers: 3, Buyers: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := leader.srv.Store().Create(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := leader.srv.Store().Step(ctx, id, online.Event{Arrive: []int{i % 8}}); err != nil {
			t.Fatal(err)
		}
	}

	follower := startNode(t, t.TempDir(), 1, 5)
	defer follower.close()
	follower.follow(t, leader.url())
	waitSynced(t, leader.srv.Store(), follower.srv.Store())

	if n := follower.reg.CounterValue("replica.checkpoint_ships"); n == 0 {
		t.Error("replica.checkpoint_ships = 0; follower was expected to start below the leader's horizon")
	}
	if got, want := snapshotAll(t, follower.srv.Store()), snapshotAll(t, leader.srv.Store()); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state differs after checkpoint ship:\n got %+v\nwant %+v", got, want)
	}
}

// The follower HTTP contract: writes are gated with 503 + X-Leader while
// following, promote on a non-follower is 409, status documents report the
// role flip, and a promoted node accepts writes.
func TestFollowerGateAndPromote(t *testing.T) {
	leader := startNode(t, t.TempDir(), 1, 0)
	defer leader.close()
	follower := startNode(t, t.TempDir(), 1, 0)
	defer follower.close()
	follower.follow(t, leader.url())

	// Create a session on the leader so a write can target something real.
	m, err := market.Generate(market.Config{Sellers: 2, Buyers: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.CreateRequest{Spec: m.Spec()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(leader.url()+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created server.CreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	waitSynced(t, leader.srv.Store(), follower.srv.Store())

	// Writes on the follower: 503 with the leader's address.
	ev, _ := json.Marshal(online.Event{Arrive: []int{0}})
	resp, err = http.Post(follower.url()+"/v1/sessions/"+created.ID+"/events", "application/json", bytes.NewReader(ev))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	hint := resp.Header.Get("X-Leader")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower write: HTTP %d, want 503", resp.StatusCode)
	}
	if hint != leader.url() {
		t.Fatalf("X-Leader = %q, want %q", hint, leader.url())
	}

	// Status documents on both nodes.
	var st replica.NodeStatus
	getJSON(t, follower.url()+"/v1/status", &st)
	if st.Role != replica.RoleFollower || st.Leader != leader.url() {
		t.Fatalf("follower /v1/status = %+v", st)
	}
	getJSON(t, leader.url()+"/v1/status", &st)
	if st.Role != replica.RoleLeader || len(st.Shards) != 1 {
		t.Fatalf("leader /v1/status = %+v", st)
	}
	var rs replica.ReplicaStatus
	getJSON(t, follower.url()+"/v1/replica/status", &rs)
	if rs.Follow == nil || len(rs.Follow.Shards) != 1 {
		t.Fatalf("follower /v1/replica/status lacks follow info: %+v", rs)
	}

	// Promote on the leader: 409, it is not a follower.
	resp, err = http.Post(leader.url()+"/v1/replica/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote on leader: HTTP %d, want 409", resp.StatusCode)
	}

	// Promote the follower and write through it.
	resp, err = http.Post(follower.url()+"/v1/replica/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr server.PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Role != replica.RoleLeader || pr.WasFollowing != leader.url() {
		t.Fatalf("promote: HTTP %d %+v", resp.StatusCode, pr)
	}
	getJSON(t, follower.url()+"/v1/status", &st)
	if st.Role != replica.RoleLeader {
		t.Fatalf("post-promote role = %q", st.Role)
	}
	resp, err = http.Post(follower.url()+"/v1/sessions/"+created.ID+"/events", "application/json", bytes.NewReader(ev))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-promote write: HTTP %d, want 200", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
