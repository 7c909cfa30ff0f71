package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func sampleRecords() []Record {
	return []Record{
		{Type: TypeCreate, LSN: 1, Body: []byte(`{"id":"m00000001"}`)},
		{Type: TypeStep, LSN: 2, Body: []byte(`{"id":"m00000001","event":{"arrive":[0,1]}}`)},
		{Type: TypeStep, LSN: 3, Body: nil}, // empty body must frame and decode
		{Type: TypeRebuild, LSN: 4, Body: []byte(`{"id":"m00000001"}`)},
		{Type: TypeDelete, LSN: 5, Body: bytes.Repeat([]byte{0xa5}, 1000)},
	}
}

func encode(recs []Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return buf
}

func TestRecordRoundTrip(t *testing.T) {
	want := sampleRecords()
	buf := encode(want)
	got, n, err := Scan(buf)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("Scan consumed %d of %d bytes", n, len(buf))
	}
	if len(got) != len(want) {
		t.Fatalf("Scan decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].LSN != want[i].LSN || !bytes.Equal(got[i].Body, want[i].Body) {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	for i, r := range want {
		if EncodedSize(len(r.Body)) != len(AppendRecord(nil, r)) {
			t.Errorf("record %d: EncodedSize disagrees with AppendRecord", i)
		}
	}
}

// Truncating the buffer at every possible point must classify as a torn
// tail and hand back exactly the records whose frames are intact.
func TestScanTornTail(t *testing.T) {
	recs := sampleRecords()
	buf := encode(recs)
	bounds := []int{0}
	for _, r := range recs {
		bounds = append(bounds, bounds[len(bounds)-1]+EncodedSize(len(r.Body)))
	}
	for cut := 0; cut < len(buf); cut++ {
		got, n, err := Scan(buf[:cut])
		intact := 0
		for _, b := range bounds[1:] {
			if b <= cut {
				intact++
			}
		}
		if cut == bounds[intact] {
			// Clean frame boundary: no tear.
			if err != nil {
				t.Fatalf("cut %d on boundary: unexpected error %v", cut, err)
			}
		} else if !errors.Is(err, ErrTornTail) {
			t.Fatalf("cut %d: err = %v, want ErrTornTail", cut, err)
		}
		if len(got) != intact {
			t.Fatalf("cut %d: decoded %d records, want %d", cut, len(got), intact)
		}
		if n != bounds[intact] {
			t.Fatalf("cut %d: consumed %d bytes, want %d", cut, n, bounds[intact])
		}
	}
}

// A damaged byte in anything but the final frame is mid-log corruption; the
// same damage in the final frame is indistinguishable from a torn write.
func TestScanCorruptionClassification(t *testing.T) {
	recs := sampleRecords()
	buf := encode(recs)
	finalStart := len(buf) - EncodedSize(len(recs[len(recs)-1].Body))

	corrupt := append([]byte(nil), buf...)
	corrupt[finalStart-4] ^= 0xff // inside the second-to-last record's body
	got, _, err := Scan(corrupt)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior damage: err = %v, want ErrCorrupt", err)
	}
	if len(got) != len(recs)-2 {
		t.Fatalf("interior damage: decoded %d records, want %d", len(got), len(recs)-2)
	}

	torn := append([]byte(nil), buf...)
	torn[len(torn)-1] ^= 0xff
	got, _, err = Scan(torn)
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("final-frame damage: err = %v, want ErrTornTail", err)
	}
	if len(got) != len(recs)-1 {
		t.Fatalf("final-frame damage: decoded %d records, want %d", len(got), len(recs)-1)
	}
}

func TestScanBadLengthAndType(t *testing.T) {
	// A bounded bogus length mid-file (frame would end before EOF) is
	// corruption, not a tear.
	buf := encode(sampleRecords())
	bad := append([]byte(nil), buf...)
	bad[0], bad[1], bad[2], bad[3] = 3, 0, 0, 0 // plen 3 < metaSize
	if _, _, err := Scan(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad small length mid-file: err = %v, want ErrCorrupt", err)
	}
	// The same bogus length as the only frame claims past EOF: torn.
	if _, _, err := Scan(bad[:headerSize]); !errors.Is(err, ErrTornTail) {
		t.Fatalf("bad length at EOF: err = %v, want ErrTornTail", err)
	}
	// An unknown record type with a valid CRC is corruption.
	weird := AppendRecord(nil, Record{Type: Type(200), LSN: 9})
	if _, _, err := Scan(weird); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTornTail) {
		t.Fatalf("unknown type: err = %v, want classification error", err)
	}
}

func TestScanFileMagic(t *testing.T) {
	buf := append([]byte{}, Magic[:]...)
	buf = AppendRecord(buf, Record{Type: TypeCreate, LSN: 1, Body: []byte("x")})
	recs, n, err := ScanFile(buf)
	if err != nil || len(recs) != 1 || n != len(buf) {
		t.Fatalf("ScanFile: recs=%d n=%d err=%v", len(recs), n, err)
	}
	if _, _, err := ScanFile([]byte("NOTAWAL!rest")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err = %v, want ErrBadMagic", err)
	}
	if _, _, err := ScanFile([]byte("SPE")); !errors.Is(err, ErrTornTail) {
		t.Fatalf("short file: err = %v, want ErrTornTail", err)
	}
}

// Batched appends must become durable and fire every callback with nil, in
// order, and the file must decode to exactly the appended records. Every
// tenth append also calls Sync, as a checkpoint does, so Sync's flushes
// race the syncer's.
func TestLogAppendBatchedDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-test.log")
	var (
		statMu    sync.Mutex
		statRecs  int
		statBytes int
	)
	l, err := Create(path, func(records, bytes int, _ time.Duration) {
		statMu.Lock()
		statRecs += records
		statBytes += bytes
		statMu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	var wg sync.WaitGroup
	order := make([]int, 0, n)
	var orderMu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		i := i
		l.Append(Record{Type: TypeStep, LSN: uint64(i + 1), Body: []byte(fmt.Sprintf("body-%03d", i))}, func(err error) {
			if err != nil {
				t.Errorf("append %d: durable callback error %v", i, err)
			}
			orderMu.Lock()
			order = append(order, i)
			orderMu.Unlock()
			wg.Done()
		})
		if i%10 == 9 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("callbacks fired out of order: %v", order[:i+1])
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := ScanFile(data)
	if err != nil || len(recs) != n {
		t.Fatalf("file decode: %d records, err %v", len(recs), err)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d: LSN %d", i, r.LSN)
		}
	}
	statMu.Lock()
	defer statMu.Unlock()
	if statRecs != n {
		t.Errorf("stats saw %d records, want %d", statRecs, n)
	}
	if int64(statBytes) != l.Size()-int64(len(Magic)) {
		t.Errorf("stats saw %d bytes, log size says %d", statBytes, l.Size()-int64(len(Magic)))
	}
}

// Sync is the drain barrier: after it returns, everything previously
// appended is on disk, whether the syncer or Sync itself flushed it.
func TestLogSyncBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.log")
	l, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeStep, LSN: uint64(i + 1)}, nil)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _, err := ScanFile(data); err != nil || len(recs) != 10 {
		t.Fatalf("after Sync: %d records on disk, err %v", len(recs), err)
	}
}

func TestLogAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.log")
	l, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	var got error
	l.Append(Record{Type: TypeStep, LSN: 1}, func(err error) { got = err })
	if !errors.Is(got, ErrClosed) {
		t.Fatalf("append after close: callback err = %v, want ErrClosed", got)
	}
}

// Group commit: records appended while a write+fsync is in flight go out
// together in the next one, and every callback still fires after its own
// batch's fsync, in LSN order.
func TestLogGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.log")
	var (
		mu      sync.Mutex
		batches []int
		acked   []uint64
	)
	l, err := Create(path, func(records, _ int, _ time.Duration) {
		mu.Lock()
		batches = append(batches, records)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	l.SetOnDurable(func([]byte, uint64) {
		first.Do(func() {
			close(entered)
			<-release // hold the first flush after its fsync
		})
	})

	const n = 51
	var wg sync.WaitGroup
	wg.Add(n)
	appendLSN := func(lsn uint64) {
		l.Append(Record{Type: TypeStep, LSN: lsn}, func(err error) {
			if err != nil {
				t.Errorf("lsn %d: durable callback error %v", lsn, err)
			}
			mu.Lock()
			acked = append(acked, lsn)
			mu.Unlock()
			wg.Done()
		})
	}
	appendLSN(1)
	<-entered
	for lsn := uint64(2); lsn <= n; lsn++ {
		appendLSN(lsn)
	}
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 || batches[0] != 1 || batches[1] != n-1 {
		t.Fatalf("fsync batches = %v, want [1 %d]", batches, n-1)
	}
	for i, lsn := range acked {
		if lsn != uint64(i+1) {
			t.Fatalf("callbacks fired out of LSN order: %v", acked)
		}
	}
}

// A lone append becomes durable on its own: nothing but the append's kick
// wakes the syncer, with no Sync, Close or later append to push it out.
func TestLogLoneAppendSyncs(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "lone.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	l.Append(Record{Type: TypeCreate, LSN: 1, Body: []byte("alone")}, func(err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a lone append was not fsynced within 10s")
	}
}
