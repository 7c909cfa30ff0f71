package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"specmatch/internal/eventlog"
	"specmatch/internal/online"
	"specmatch/internal/wal"
)

// A stream's file catch-up must ship only durable records. The log writes a
// batch before it fsyncs it, so the file can hold a frame the leader has
// neither fsynced nor acked; after a crash its LSN goes to another record,
// and a follower that had it would silently diverge. The test plants such a
// frame (LSN durable+1, never published) at the end of the active log,
// lets a stream catch up and attach, then steps the session: the first
// record the stream ships must be the real LSN durable+1.
func TestStreamShipsOnlyDurableRecords(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, durableConfig(dir, 1))
	st := srv.Store()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, _, err := st.Create(ctx, testMarket(t, 3, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(ctx, id, online.Event{Arrive: []int{0}}); err != nil {
		t.Fatal(err)
	}
	durable := st.ShardStatuses()[0].DurableLSN

	logs, err := filepath.Glob(filepath.Join(dir, "shard-000", "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("want one active log, got %v (%v)", logs, err)
	}
	planted := wal.Record{Type: wal.TypeStep, LSN: durable + 1,
		Body: eventlog.Step{ID: id, Event: online.Event{Arrive: []int{1}}}.Encode()}
	f, err := os.OpenFile(logs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(wal.AppendRecord(nil, planted)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	url := fmt.Sprintf("%s/v1/replica/shards/0/stream?from_lsn=%d", ts.URL, durable)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := wal.ReadMagic(resp.Body); err != nil {
		t.Fatal(err)
	}
	// Attach follows the file catch-up, so once the stream is a feed
	// subscriber everything it read from the files has been sent.
	for st.shards[0].feed.Subscribers() == 0 {
		if ctx.Err() != nil {
			t.Fatal("stream never attached to the feed")
		}
		time.Sleep(time.Millisecond)
	}

	ev := online.Event{Arrive: []int{2}}
	if _, err := st.Step(ctx, id, ev); err != nil {
		t.Fatal(err)
	}
	r, err := wal.ReadRecord(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(r.Body, planted.Body) {
		t.Fatalf("stream shipped lsn %d from the file before it was durable", r.LSN)
	}
	if want := (eventlog.Step{ID: id, Event: ev}.Encode()); r.LSN != durable+1 || !bytes.Equal(r.Body, want) {
		t.Fatalf("stream's first record is lsn %d, want the acked step at lsn %d", r.LSN, durable+1)
	}
}
