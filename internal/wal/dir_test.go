package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openClean opens a dir and fails the test on error.
func openClean(t *testing.T, path string) (*Dir, *Recovered) {
	t.Helper()
	d, rec, err := Open(path, false, nil)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return d, rec
}

// appendSync appends records lsn..lsn+n-1 and waits for durability.
func appendSync(t *testing.T, d *Dir, lsn uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		l := lsn + uint64(i)
		d.Append(Record{Type: TypeStep, LSN: l, Body: []byte(fmt.Sprintf("step-%d", l))}, func(err error) {
			if err != nil {
				t.Errorf("append lsn %d: %v", l, err)
			}
		})
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestDirCheckpointAppendRecover(t *testing.T) {
	path := t.TempDir()
	d, rec := openClean(t, path)
	if rec.SnapshotBody != nil || len(rec.Records) != 0 || rec.MaxLSN != 0 {
		t.Fatalf("fresh dir recovered non-empty state: %+v", rec)
	}
	if err := d.Checkpoint(0, []byte("state-0")); err != nil {
		t.Fatal(err)
	}
	appendSync(t, d, 1, 5)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, rec2 := openClean(t, path)
	defer d2.Close()
	if string(rec2.SnapshotBody) != "state-0" || rec2.SnapshotLSN != 0 {
		t.Fatalf("recovered snapshot %q@%d", rec2.SnapshotBody, rec2.SnapshotLSN)
	}
	if len(rec2.Records) != 5 || rec2.MaxLSN != 5 {
		t.Fatalf("recovered %d records, max lsn %d; want 5, 5", len(rec2.Records), rec2.MaxLSN)
	}
	for i, r := range rec2.Records {
		if r.LSN != uint64(i+1) || string(r.Body) != fmt.Sprintf("step-%d", i+1) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if rec2.TornRecords != 0 || rec2.RepairedRecords != 0 {
		t.Fatalf("clean dir reported damage: %+v", rec2)
	}
}

// A checkpoint truncates: superseded generations disappear and recovery
// replays only records past the checkpoint LSN.
func TestDirCheckpointRotation(t *testing.T) {
	path := t.TempDir()
	d, _ := openClean(t, path)
	if err := d.Checkpoint(0, []byte("s0")); err != nil {
		t.Fatal(err)
	}
	appendSync(t, d, 1, 8)
	if err := d.Checkpoint(8, []byte("s8")); err != nil {
		t.Fatal(err)
	}
	appendSync(t, d, 9, 3)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("after rotation want exactly snap+log, got %v", names)
	}

	_, rec := openClean(t, path)
	if string(rec.SnapshotBody) != "s8" || rec.SnapshotLSN != 8 {
		t.Fatalf("recovered snapshot %q@%d, want s8@8", rec.SnapshotBody, rec.SnapshotLSN)
	}
	if len(rec.Records) != 3 || rec.Records[0].LSN != 9 || rec.MaxLSN != 11 {
		t.Fatalf("recovered %d records (first lsn %d, max %d); want 3 from 9 to 11",
			len(rec.Records), rec.Records[0].LSN, rec.MaxLSN)
	}
}

// A torn tail on the live log (the crash signature) is dropped silently and
// counted; the intact prefix survives.
func TestDirTornTailTruncated(t *testing.T) {
	path := t.TempDir()
	d, _ := openClean(t, path)
	if err := d.Checkpoint(0, []byte("s0")); err != nil {
		t.Fatal(err)
	}
	appendSync(t, d, 1, 4)
	logPath := filepath.Join(path, logName(d.Gen()))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: half a frame at the tail.
	frame := AppendRecord(nil, Record{Type: TypeStep, LSN: 5, Body: []byte("never-acked")})
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, rec := openClean(t, path) // torn tails never need repair
	if len(rec.Records) != 4 || rec.TornRecords == 0 {
		t.Fatalf("recovered %d records, torn %d; want 4 records and a torn count", len(rec.Records), rec.TornRecords)
	}
	if rec.MaxLSN != 4 {
		t.Fatalf("MaxLSN %d includes the torn record", rec.MaxLSN)
	}
}

// Mid-log corruption refuses recovery unless repair, which keeps the intact
// prefix and counts the damage.
func TestDirMidLogCorruption(t *testing.T) {
	path := t.TempDir()
	d, _ := openClean(t, path)
	if err := d.Checkpoint(0, []byte("s0")); err != nil {
		t.Fatal(err)
	}
	appendSync(t, d, 1, 6)
	logPath := filepath.Join(path, logName(d.Gen()))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the second record's body: intact frames follow, so this cannot
	// be a torn write.
	off := len(Magic) + EncodedSize(len("step-1")) + EncodedSize(len("step-2")) - 2
	data[off] ^= 0xff
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(path, false, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open without repair: err = %v, want ErrCorrupt", err)
	}
	_, rec, err := Open(path, true, nil)
	if err != nil {
		t.Fatalf("Open with repair: %v", err)
	}
	if len(rec.Records) != 1 || rec.Records[0].LSN != 1 {
		t.Fatalf("repair kept %d records, want the intact prefix of 1", len(rec.Records))
	}
	if rec.RepairedRecords == 0 {
		t.Fatal("repair did not count the dropped records")
	}
}

// An unreadable newest checkpoint is fatal without repair; with repair an
// older readable checkpoint takes over.
func TestDirCorruptCheckpoint(t *testing.T) {
	path := t.TempDir()
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	writeSnap := func(gen uint64, lsn uint64, body string) {
		buf := append([]byte{}, Magic[:]...)
		buf = AppendRecord(buf, Record{Type: TypeSnapshot, LSN: lsn, Body: []byte(body)})
		if err := os.WriteFile(filepath.Join(path, snapName(gen)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSnap(1, 10, "old-but-good")
	writeSnap(2, 20, "new-and-bad")
	// Flip a body byte of the newest snapshot — complete file, bad CRC, and
	// since the snapshot frame is the file's final frame that reads as a torn
	// checkpoint, which is still unreadable and still fatal without repair.
	snap2 := filepath.Join(path, snapName(2))
	data, err := os.ReadFile(snap2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snap2, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(path, false, nil); err == nil {
		t.Fatal("Open accepted an unreadable newest checkpoint without repair")
	}
	_, rec, err := Open(path, true, nil)
	if err != nil {
		t.Fatalf("Open with repair: %v", err)
	}
	if string(rec.SnapshotBody) != "old-but-good" || rec.SnapshotLSN != 10 {
		t.Fatalf("repair recovered %q@%d, want the older checkpoint", rec.SnapshotBody, rec.SnapshotLSN)
	}
	if rec.RepairedSnapshots != 1 {
		t.Fatalf("RepairedSnapshots = %d, want 1", rec.RepairedSnapshots)
	}
}

// A crash between snapshot rename and old-file deletion leaves both
// generations on disk; recovery must not double-apply covered records.
func TestDirRotationCrashWindow(t *testing.T) {
	path := t.TempDir()
	d, _ := openClean(t, path)
	if err := d.Checkpoint(0, []byte("s0")); err != nil {
		t.Fatal(err)
	}
	appendSync(t, d, 1, 5)
	oldLog := filepath.Join(path, logName(d.Gen()))
	data, err := os.ReadFile(oldLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(5, []byte("s5")); err != nil {
		t.Fatal(err)
	}
	appendSync(t, d, 6, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the superseded log and drop in a stale tmp file, as if the
	// rotation's cleanup never ran.
	if err := os.WriteFile(oldLog, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, snapName(99)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, rec := openClean(t, path)
	if string(rec.SnapshotBody) != "s5" || rec.SnapshotLSN != 5 {
		t.Fatalf("recovered %q@%d, want s5@5", rec.SnapshotBody, rec.SnapshotLSN)
	}
	if len(rec.Records) != 2 || rec.Records[0].LSN != 6 || rec.Records[1].LSN != 7 {
		t.Fatalf("recovered records %+v, want exactly lsn 6 and 7 (covered lsns skipped)", rec.Records)
	}
	// The next checkpoint clears the leftovers.
	if err := d2.Checkpoint(7, []byte("s7")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(path)
	for _, e := range ents {
		if e.Name() != snapName(d2.Gen()) && e.Name() != logName(d2.Gen()) {
			t.Fatalf("leftover %s survived the next checkpoint", e.Name())
		}
	}
}

// A rotation that renames the new snapshot but never creates the new log
// (ENOSPC, crash between the two) leaves the shard appending acknowledged
// records into the OLD generation's log. Recovery must read logs the
// checkpoint appears to supersede and keep every record past the snapshot
// LSN — skipping whole logs by generation number would drop acked data.
func TestDirFailedRotationKeepsAckedRecords(t *testing.T) {
	path := t.TempDir()
	d, _ := openClean(t, path)
	if err := d.Checkpoint(0, []byte("s0")); err != nil {
		t.Fatal(err)
	}
	appendSync(t, d, 1, 5)
	gen := d.Gen()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the partial rotation: snap-(gen+1) covering through lsn 3
	// appears, but wal-(gen+1) does not; lsns 4 and 5 — acknowledged after
	// the failed rotation — exist only in the old generation's log.
	buf := append([]byte{}, Magic[:]...)
	buf = AppendRecord(buf, Record{Type: TypeSnapshot, LSN: 3, Body: []byte("s3")})
	if err := os.WriteFile(filepath.Join(path, snapName(gen+1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, rec := openClean(t, path) // acked data at stake: must not need repair
	if string(rec.SnapshotBody) != "s3" || rec.SnapshotLSN != 3 {
		t.Fatalf("recovered snapshot %q@%d, want s3@3", rec.SnapshotBody, rec.SnapshotLSN)
	}
	if len(rec.Records) != 2 || rec.Records[0].LSN != 4 || rec.Records[1].LSN != 5 {
		t.Fatalf("recovered records %+v, want exactly lsn 4 and 5 from the superseded log", rec.Records)
	}
	if rec.MaxLSN != 5 || rec.TornRecords != 0 || rec.RepairedRecords != 0 {
		t.Fatalf("recovery stats off: %+v", rec)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// Same layout with a torn tail on the old log: it was still the shard's
	// active log when the crash hit, so the torn frame is the ordinary
	// crash signature — truncated silently, no repair required.
	frame := AppendRecord(nil, Record{Type: TypeStep, LSN: 6, Body: []byte("never-acked")})
	f, err := os.OpenFile(filepath.Join(path, logName(gen)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	d3, rec3 := openClean(t, path)
	defer d3.Close()
	if len(rec3.Records) != 2 || rec3.TornRecords == 0 {
		t.Fatalf("recovered %d records, torn %d; want 2 records and a torn count", len(rec3.Records), rec3.TornRecords)
	}
}

// A torn frame in a log with appended-to later generations cannot be a
// crash artifact — the shard had already moved on — and must be treated as
// corruption: fatal without repair.
func TestDirTornSupersededLogIsCorruption(t *testing.T) {
	path := t.TempDir()
	d, _ := openClean(t, path)
	if err := d.Checkpoint(0, []byte("s0")); err != nil {
		t.Fatal(err)
	}
	appendSync(t, d, 1, 4)
	oldLog := filepath.Join(path, logName(d.Gen()))
	oldData, err := os.ReadFile(oldLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(4, []byte("s4")); err != nil {
		t.Fatal(err)
	}
	appendSync(t, d, 5, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the superseded log with a half frame at its tail: the next
	// generation holds records, so this cannot be the active log's torn tail.
	frame := AppendRecord(nil, Record{Type: TypeStep, LSN: 99, Body: []byte("damage")})
	oldData = append(oldData, frame[:len(frame)/2]...)
	if err := os.WriteFile(oldLog, oldData, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(path, false, nil); err == nil {
		t.Fatal("Open accepted a torn superseded log without repair")
	}
	_, rec, err := Open(path, true, nil)
	if err != nil {
		t.Fatalf("Open with repair: %v", err)
	}
	if len(rec.Records) != 2 || rec.Records[0].LSN != 5 {
		t.Fatalf("repair recovered %+v, want lsn 5 and 6", rec.Records)
	}
	if rec.RepairedRecords == 0 {
		t.Fatal("repair did not count the damage")
	}
}

func TestDirAppendBeforeCheckpoint(t *testing.T) {
	d, _ := openClean(t, t.TempDir())
	defer d.Close()
	var got error
	d.Append(Record{Type: TypeStep, LSN: 1}, func(err error) { got = err })
	if got == nil {
		t.Fatal("append before first checkpoint succeeded")
	}
}

// Snapshot bodies survive the write/read cycle byte for byte, including
// non-JSON content — the framing is payload-agnostic.
func TestSnapshotFileRoundTrip(t *testing.T) {
	path := t.TempDir()
	d, _ := openClean(t, path)
	body := bytes.Repeat([]byte{0x00, 0xff, 0x7f}, 4096)
	if err := d.Checkpoint(42, body); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openClean(t, path)
	if !bytes.Equal(rec.SnapshotBody, body) || rec.SnapshotLSN != 42 {
		t.Fatalf("snapshot round trip lost data: %d bytes @%d", len(rec.SnapshotBody), rec.SnapshotLSN)
	}
}
