package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Recovered is what Open found on disk: the newest readable checkpoint and
// every log record past it, in application order. The caller rebuilds its
// state from these, then MUST call Checkpoint before appending — that
// rotates to a fresh generation, which is also what persists the truncation
// of a torn tail.
type Recovered struct {
	// SnapshotBody is the newest readable checkpoint's body, nil when the
	// directory had no (readable) checkpoint.
	SnapshotBody []byte
	// SnapshotLSN is the LSN the checkpoint covers through.
	SnapshotLSN uint64
	// Records are the log records with LSN > SnapshotLSN, oldest first.
	Records []Record
	// MaxLSN is the highest LSN seen anywhere (snapshot or logs).
	MaxLSN uint64
	// TornRecords counts tail frames dropped as torn writes.
	TornRecords int
	// RepairedRecords counts frames dropped past a mid-log corruption in
	// repair mode (always 0 otherwise — without repair, corruption is an
	// Open error).
	RepairedRecords int
	// RepairedSnapshots counts unreadable checkpoint files skipped in
	// repair mode.
	RepairedSnapshots int
}

// Dir is one shard's durable state: the current-generation log plus the
// checkpoint files, rotated by Checkpoint. Append/Checkpoint are owned by
// the shard goroutine; Sync/Close may be called during shutdown.
type Dir struct {
	path      string
	stats     SyncStats
	onDurable DurableFunc
	gen       uint64
	log       *Log
	closed    bool
}

func snapName(gen uint64) string { return fmt.Sprintf("snap-%016x.ckpt", gen) }
func logName(gen uint64) string  { return fmt.Sprintf("wal-%016x.log", gen) }

func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 16, 64)
	return g, err == nil
}

// Open recovers a shard directory (creating it if absent). repair
// tolerates mid-log and mid-checkpoint corruption by dropping everything
// from the first corrupt frame on; stats observes every fsync of the logs
// the Dir creates. After Open the Dir has no writable log yet: call
// Checkpoint with the rebuilt state first.
func Open(path string, repair bool, stats SyncStats) (*Dir, *Recovered, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, nil, err
	}
	rec, snapGen, logGens, err := readState(path, repair)
	if err != nil {
		return nil, nil, err
	}
	d := &Dir{path: path, stats: stats, gen: maxU64(snapGen, lastU64(logGens))}
	return d, rec, nil
}

// ReadState recovers a shard directory's durable state without opening it
// for writing: the same newest-checkpoint-plus-log-replay scan Open runs,
// against whatever files are on disk right now. It is the read side of a
// point-in-time fork — the owning Dir may keep appending concurrently, since
// the scan only sees bytes already written (callers wanting the acknowledged
// tail should Sync first). Strict: any damage beyond a torn tail is an
// error.
func ReadState(path string) (*Recovered, error) {
	rec, _, _, err := readState(path, false)
	return rec, err
}

// readState scans a shard directory: newest readable checkpoint, then every
// log record past its LSN, in generation order. Shared by Open (which then
// owns the directory) and ReadState (which never writes).
func readState(path string, repair bool) (*Recovered, uint64, []uint64, error) {
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, 0, nil, err
	}
	var snapGens, logGens []uint64
	for _, e := range entries {
		if g, ok := parseGen(e.Name(), "snap-", ".ckpt"); ok {
			snapGens = append(snapGens, g)
		}
		if g, ok := parseGen(e.Name(), "wal-", ".log"); ok {
			logGens = append(logGens, g)
		}
		// Anything else (tmp files from a crashed rotation) is ignored and
		// cleaned up by the next Checkpoint.
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	sort.Slice(logGens, func(i, j int) bool { return logGens[i] < logGens[j] })

	rec := &Recovered{}
	snapGen := uint64(0)
	// Newest readable checkpoint wins; an unreadable one is fatal unless
	// repair, because it may cover records the older snapshot does not.
	for _, g := range snapGens {
		body, lsn, err := readSnapshotFile(filepath.Join(path, snapName(g)))
		if err != nil {
			if !repair {
				return nil, 0, nil, fmt.Errorf("wal: checkpoint %s: %w", snapName(g), err)
			}
			rec.RepairedSnapshots++
			continue
		}
		rec.SnapshotBody = body
		rec.SnapshotLSN = lsn
		rec.MaxLSN = lsn
		snapGen = g
		break
	}

	// Read EVERY log, even generations the checkpoint appears to supersede:
	// the per-record 'LSN <= SnapshotLSN' filter below already makes replay
	// idempotent, and a rotation that renamed the new snapshot but failed to
	// create the new log leaves acknowledged records in the OLD generation's
	// log. Skipping by generation number would silently drop them.
	type scannedLog struct {
		gen  uint64
		recs []Record
		err  error
	}
	logs := make([]scannedLog, 0, len(logGens))
	for _, g := range logGens {
		data, err := os.ReadFile(filepath.Join(path, logName(g)))
		if err != nil {
			return nil, 0, nil, err
		}
		recs, _, serr := ScanFile(data)
		logs = append(logs, scannedLog{gen: g, recs: recs, err: serr})
	}
	for i, lg := range logs {
		// A torn tail is the crash signature of the log that was still being
		// appended to. That is usually the newest generation, but after a
		// failed rotation the shard keeps appending to the old one — so a
		// torn tail is legitimate exactly when no LATER generation holds
		// records. A torn log with appended-to successors was complete when
		// it was superseded; its damage is corruption, not a crash artifact.
		laterHasRecords := false
		for _, l2 := range logs[i+1:] {
			if len(l2.recs) > 0 {
				laterHasRecords = true
				break
			}
		}
		switch {
		case lg.err == nil:
		case errors.Is(lg.err, ErrTornTail):
			if laterHasRecords {
				if !repair {
					return nil, 0, nil, fmt.Errorf("wal: %s: torn frame in superseded log: %w", logName(lg.gen), lg.err)
				}
				rec.RepairedRecords++ // at least the dropped frame
			} else {
				rec.TornRecords++
			}
		default: // ErrCorrupt, ErrBadMagic, ...
			if !repair {
				return nil, 0, nil, fmt.Errorf("wal: %s: %w", logName(lg.gen), lg.err)
			}
			rec.RepairedRecords++
		}
		for _, r := range lg.recs {
			if r.LSN > rec.MaxLSN {
				rec.MaxLSN = r.LSN
			}
			if r.LSN <= rec.SnapshotLSN {
				continue // covered by the checkpoint (rotation crash window)
			}
			rec.Records = append(rec.Records, r)
		}
	}

	return rec, snapGen, logGens, nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func lastU64(s []uint64) uint64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// Path returns the shard directory path.
func (d *Dir) Path() string { return d.path }

// Gen returns the current generation number.
func (d *Dir) Gen() uint64 { return d.gen }

// SetOnDurable installs the post-fsync batch observer on the current log and
// every log a future Checkpoint rotates to (see DurableFunc). Called by the
// shard goroutine, or before the first Checkpoint.
func (d *Dir) SetOnDurable(fn DurableFunc) {
	d.onDurable = fn
	if d.log != nil {
		d.log.SetOnDurable(fn)
	}
}

// Checkpoint makes body the durable full state through lsn and truncates
// the log: sync the old log (releasing its pending acknowledgements), open
// the next generation's log, write the new snapshot atomically (tmp +
// rename), fsync the directory, and only then delete the superseded
// generation's files. A crash or failure at any point leaves a directory
// Open can recover: the new snapshot only becomes visible by its rename, a
// failed rotation aborts with the old generation still live (and recovery
// reads every log, so records appended to it afterwards survive), and the
// directory fsync orders the rename before the unlinks so no crash window
// leaves neither generation readable.
func (d *Dir) Checkpoint(lsn uint64, body []byte) error {
	if d.closed {
		return ErrClosed
	}
	if d.log != nil {
		if err := d.log.Sync(); err != nil {
			return err
		}
	}
	next := d.gen + 1
	// New log before the snapshot rename: if either step fails the rotation
	// aborts with the old generation fully intact and the shard keeps
	// appending to its current log.
	nextLog := filepath.Join(d.path, logName(next))
	nl, err := Create(nextLog, d.stats)
	if err != nil {
		return err
	}
	nl.SetOnDurable(d.onDurable)
	if err := writeSnapshotFile(filepath.Join(d.path, snapName(next)), lsn, body); err != nil {
		_ = nl.Close()
		_ = os.Remove(nextLog)
		return err
	}
	// Make the snapshot rename and the new log's directory entry durable
	// BEFORE unlinking what they supersede: POSIX orders none of these
	// metadata ops without an intervening fsync, so deleting first could
	// persist the unlinks but not the rename across a crash.
	if err := SyncDir(d.path); err != nil {
		_ = nl.Close()
		_ = os.Remove(nextLog)
		return err
	}
	old := d.log
	oldGen := d.gen
	d.log, d.gen = nl, next
	if old != nil {
		_ = old.Close()
	}
	// Best-effort cleanup: anything this generation supersedes. Leftovers
	// from a crash here are harmless and removed next time.
	ents, _ := os.ReadDir(d.path)
	for _, e := range ents {
		if g, ok := parseGen(e.Name(), "snap-", ".ckpt"); ok && g < next {
			_ = os.Remove(filepath.Join(d.path, e.Name()))
		}
		if g, ok := parseGen(e.Name(), "wal-", ".log"); ok && g <= oldGen {
			_ = os.Remove(filepath.Join(d.path, e.Name()))
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(d.path, e.Name()))
		}
	}
	return SyncDir(d.path)
}

// Append appends one record to the current log; onDurable fires once it is
// fsynced. Checkpoint must have been called at least once since Open.
func (d *Dir) Append(r Record, onDurable func(error)) {
	if d.log == nil {
		if onDurable != nil {
			onDurable(fmt.Errorf("wal: append before first checkpoint"))
		}
		return
	}
	d.log.Append(r, onDurable)
}

// Sync flushes the current log and waits for durability — the drain
// barrier: after Sync returns, every acknowledged record is on disk.
func (d *Dir) Sync() error {
	if d.log == nil {
		return nil
	}
	return d.log.Sync()
}

// Close syncs and closes the current log. Idempotent.
func (d *Dir) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	if d.log == nil {
		return nil
	}
	return d.log.Close()
}

// writeSnapshotFile writes a checkpoint: magic + one framed TypeSnapshot
// record, via tmp + fsync + rename so a reader (or recovery) never sees a
// partial file.
func writeSnapshotFile(path string, lsn uint64, body []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(Magic)+EncodedSize(len(body)))
	buf = append(buf, Magic[:]...)
	buf = AppendRecord(buf, Record{Type: TypeSnapshot, LSN: lsn, Body: body})
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// readSnapshotFile loads and verifies a checkpoint file.
func readSnapshotFile(path string) (body []byte, lsn uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	recs, n, err := ScanFile(data)
	if err != nil {
		return nil, 0, err
	}
	if len(recs) != 1 || recs[0].Type != TypeSnapshot || n != len(data) {
		return nil, 0, fmt.Errorf("%w: checkpoint wants exactly one snapshot record, got %d", ErrCorrupt, len(recs))
	}
	return recs[0].Body, recs[0].LSN, nil
}

// SyncDir fsyncs a directory so renames within it are durable.
func SyncDir(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	// Some filesystems refuse directory fsync; rename durability is then
	// best-effort, which still preserves atomicity.
	if errors.Is(err, os.ErrInvalid) {
		err = nil
	}
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	return err
}
