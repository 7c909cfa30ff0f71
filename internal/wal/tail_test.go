package wal

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
)

// openDir opens a Dir and writes the initial checkpoint that creates the
// first log generation — the step the server's recovery performs before
// any append.
func openDir(t *testing.T, dir string) *Dir {
	t.Helper()
	d, _, err := Open(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Checkpoint(0, []byte("init")); err != nil {
		t.Fatal(err)
	}
	return d
}

// appendWait appends one record and blocks until it is durable.
func appendWait(t *testing.T, d *Dir, r Record) {
	t.Helper()
	done := make(chan error, 1)
	d.Append(r, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// all is a Next bound that holds nothing back, for logs whose every record
// is already durable.
const all = ^uint64(0)

func stepRecord(lsn uint64) Record {
	return Record{Type: TypeStep, LSN: lsn, Body: []byte(`{"id":"m1","event":{}}`)}
}

// ReadRecord must round-trip what AppendRecord frames, report clean EOF
// between frames, and distinguish a torn mid-frame tail.
func TestReadRecordRoundTrip(t *testing.T) {
	var buf []byte
	buf = append(buf, Magic[:]...)
	for lsn := uint64(1); lsn <= 3; lsn++ {
		buf = AppendRecord(buf, stepRecord(lsn))
	}

	rd := bytes.NewReader(buf)
	if err := ReadMagic(rd); err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 3; lsn++ {
		r, err := ReadRecord(rd)
		if err != nil {
			t.Fatalf("record %d: %v", lsn, err)
		}
		if r.LSN != lsn || r.Type != TypeStep {
			t.Fatalf("record %d: got %+v", lsn, r)
		}
	}
	if _, err := ReadRecord(rd); err != io.EOF {
		t.Fatalf("EOF between frames: got %v", err)
	}

	// Truncate mid-frame: the reader must not report a clean EOF.
	rd = bytes.NewReader(buf[:len(buf)-3])
	if err := ReadMagic(rd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ReadRecord(rd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadRecord(rd); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: got %v, want ErrUnexpectedEOF", err)
	}
}

// A Tail must deliver every record exactly once, in order, across a
// checkpoint rotation that unlinks the log it was reading, and resume
// correctly from a mid-stream cursor.
func TestTailAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	d := openDir(t, dir)

	for lsn := uint64(1); lsn <= 5; lsn++ {
		appendWait(t, d, stepRecord(lsn))
	}

	tl := OpenTail(dir, 0)
	defer tl.Close()
	var got []uint64
	drain := func() {
		t.Helper()
		for {
			recs, err := tl.Next(all)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				return
			}
			for _, r := range recs {
				got = append(got, r.LSN)
			}
		}
	}
	drain()
	if len(got) != 5 {
		t.Fatalf("pre-rotation: got %v, want lsns 1..5", got)
	}

	// Rotate (unlinks the tailed log), then keep appending to the new
	// generation: the tail must follow without loss or duplication.
	if err := d.Checkpoint(5, []byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(6); lsn <= 9; lsn++ {
		appendWait(t, d, stepRecord(lsn))
	}
	drain()
	for i, lsn := range got {
		if lsn != uint64(i+1) {
			t.Fatalf("sequence broken: %v", got)
		}
	}
	if len(got) != 9 {
		t.Fatalf("post-rotation: got %v, want lsns 1..9", got)
	}
	if tl.Cursor() != 9 {
		t.Fatalf("cursor = %d, want 9", tl.Cursor())
	}

	// A second tail resuming mid-stream sees only what is past its cursor.
	tl2 := OpenTail(dir, 7)
	defer tl2.Close()
	var resumed []uint64
	for {
		recs, err := tl2.Next(all)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			resumed = append(resumed, r.LSN)
		}
	}
	if len(resumed) != 2 || resumed[0] != 8 || resumed[1] != 9 {
		t.Fatalf("resume from 7: got %v, want [8 9]", resumed)
	}
}

// Next must hold back every record past its bound and release the held
// records, in order and exactly once, when a later bound covers them —
// also when the log they were read from has been rotated away meanwhile.
func TestTailHoldsPastBound(t *testing.T) {
	dir := t.TempDir()
	d := openDir(t, dir)
	for lsn := uint64(1); lsn <= 3; lsn++ {
		appendWait(t, d, stepRecord(lsn))
	}
	tl := OpenTail(dir, 0)
	defer tl.Close()
	var got []uint64
	next := func(upTo uint64, want ...uint64) {
		t.Helper()
		recs, err := tl.Next(upTo)
		if err != nil {
			t.Fatal(err)
		}
		var lsns []uint64
		for _, r := range recs {
			lsns = append(lsns, r.LSN)
		}
		if !slices.Equal(lsns, want) {
			t.Fatalf("Next(%d) = %v, want %v", upTo, lsns, want)
		}
		got = append(got, lsns...)
	}
	next(1, 1)
	next(1)
	if tl.Cursor() != 1 {
		t.Fatalf("cursor = %d, want 1 (held records are not returned)", tl.Cursor())
	}

	// Rotate away the log that holds 2 and 3, then append 4 and 5 to the
	// next generation.
	if err := d.Checkpoint(3, []byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(4); lsn <= 5; lsn++ {
		appendWait(t, d, stepRecord(lsn))
	}
	next(2, 2)
	next(4, 3, 4)
	next(4)
	next(all, 5)
	next(all)
	if !slices.Equal(got, []uint64{1, 2, 3, 4, 5}) || tl.Cursor() != 5 {
		t.Fatalf("got %v with cursor %d, want 1..5 with cursor 5", got, tl.Cursor())
	}
}

// NewestSnapshot must surface the latest checkpoint a rotation left behind.
func TestNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, err := NewestSnapshot(dir); err != nil || ok {
		t.Fatalf("fresh dir: ok=%v err=%v, want no snapshot", ok, err)
	}
	d := openDir(t, dir)

	appendWait(t, d, stepRecord(1))
	if err := d.Checkpoint(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	appendWait(t, d, stepRecord(2))
	if err := d.Checkpoint(2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	body, lsn, ok, err := NewestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if lsn != 2 || string(body) != "second" {
		t.Fatalf("got lsn=%d body=%q, want the newest checkpoint", lsn, body)
	}
}

// The publish hook must fire after fsync but before the durability
// callbacks, with a batch that scans back to the appended records — the
// ordering the replication ack guarantee leans on.
func TestPublishHookOrdering(t *testing.T) {
	dir := t.TempDir()
	d := openDir(t, dir)

	// Both the hook and the durability callback run on the flushing
	// goroutine, so recording order needs no locking as long as the test
	// only reads after the ack.
	var order []string
	var batches [][]byte
	var lastLSN uint64
	d.SetOnDurable(func(batch []byte, last uint64) {
		order = append(order, "publish")
		batches = append(batches, append([]byte(nil), batch...))
		lastLSN = last
	})
	done := make(chan error, 1)
	d.Append(stepRecord(1), func(err error) {
		order = append(order, "ack")
		done <- err
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if len(order) < 2 || order[0] != "publish" || order[1] != "ack" {
		t.Fatalf("order = %v, want publish before ack", order)
	}
	if lastLSN != 1 {
		t.Fatalf("published lastLSN = %d, want 1", lastLSN)
	}
	recs, _, err := Scan(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 || recs[0].Type != TypeStep {
		t.Fatalf("published batch scans to %+v", recs)
	}

	// The hook must survive a rotation: batches on the new generation's
	// log still publish.
	if err := d.Checkpoint(1, []byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	appendWait(t, d, stepRecord(2))
	if lastLSN != 2 {
		t.Fatalf("post-rotation publish lastLSN = %d, want 2", lastLSN)
	}
}
