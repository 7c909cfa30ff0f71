package server

import (
	"context"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"specmatch/internal/market"
	"specmatch/internal/online"
)

// TestWALOverhead guards the durability tax the same way the repo's other
// benchguards work: the equality half is always on, the timing half runs
// under RUN_BENCHCHECK=1 (`make benchcheck`).
//
// Equality (always on): a WAL-backed store and an in-memory store fed the
// identical workload must end in bit-for-bit identical session states —
// durability is a pure observer of the serving path.
//
// Timing (RUN_BENCHCHECK=1): 256 closed-loop clients, each stepping its
// own session 45 times, over 2 shards; WAL-on serving must stay within
// 1.25x of WAL-off, measured side by side on this machine (best of 3
// each). Every WAL-on step waits for its group commit, so the ratio prices
// the whole durable path: the append on the shard loop, the wait for the
// sync in flight plus its own, and the write+fsync CPU the shards share
// the machine with. Many more clients than shards keep records arriving
// while a sync runs, which is what lets group commit amortize one fsync
// over many acks.
func TestWALOverhead(t *testing.T) {
	timing := os.Getenv("RUN_BENCHCHECK") == "1"
	if testing.Short() {
		t.Skip("saturating workload; skipped in -short")
	}

	const (
		shards  = 2
		workers = 256
		steps   = 45 // per worker
		buyers  = 28
	)
	m, err := market.Generate(market.Config{Sellers: 5, Buyers: buyers, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}

	// run executes the fixed workload against a fresh store and returns the
	// wall time of the step phase plus the final session states. Every
	// worker owns one session and applies a deterministic per-worker event
	// sequence, so the final state is independent of interleaving and must
	// be identical across runs and configurations.
	run := func(withWAL bool) (time.Duration, map[string]online.Snapshot) {
		cfg := Config{Shards: shards}
		if withWAL {
			cfg.DataDir = t.TempDir()
		}
		st := mustStore(t, cfg)
		defer st.Close()
		ctx := context.Background()
		ids := make([]string, workers)
		for w := range ids {
			id, _, err := st.Create(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			ids[w] = id
		}
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			w := w
			go func() {
				defer wg.Done()
				for i := 0; i < steps; i++ {
					ev := online.Event{Arrive: []int{(w*13 + i) % buyers}}
					if i%3 == 2 {
						ev.Depart = []int{(w*7 + i) % buyers}
					}
					if _, err := st.Step(ctx, ids[w], ev); err != nil {
						t.Errorf("worker %d step %d: %v", w, i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		d := time.Since(start)
		return d, snapshotAll(t, st)
	}

	iters := 1
	if timing {
		iters = 3
	}
	best := func(withWAL bool) (time.Duration, map[string]online.Snapshot) {
		bestD, snaps := run(withWAL)
		for k := 1; k < iters; k++ {
			if d, s := run(withWAL); d < bestD {
				bestD, snaps = d, s
			}
		}
		return bestD, snaps
	}

	offDur, offSnaps := best(false)
	onDur, onSnaps := best(true)
	if !reflect.DeepEqual(onSnaps, offSnaps) {
		t.Error("WAL-backed store ends in a different state than the in-memory store under the identical workload")
	}

	if !timing {
		return
	}
	ratio := float64(onDur) / float64(offDur)
	t.Logf("wal-off %v, wal-on %v (%.2fx) for %d steps", offDur, onDur, ratio, workers*steps)
	if ratio > 1.25 {
		t.Errorf("WAL-on serving is %.2fx of WAL-off, budget is 1.25x (%v vs %v)", ratio, onDur, offDur)
	}
}
