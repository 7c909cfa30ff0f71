// Package wal is the durability layer under specserved's session store: an
// append-only, CRC32C-framed log of applied session mutations plus periodic
// full-state checkpoints, one directory per store shard so the shard's
// goroutine-owned queue stays lock-free (the only cross-goroutine structure
// is each log's syncer, which the shard never waits on).
//
// Durability is group commit: an append joins the pending batch and wakes
// the syncer, which writes and fsyncs the batch at once if it is idle, or
// right after the write+fsync in flight. A record's callback fires only
// after the fsync that covers it, so an acknowledgement built on it means
// the record is on disk.
//
// The package is deliberately dumb about payloads — bodies are opaque bytes
// (the server layer stores JSON) — so the framing, batching, rotation, and
// recovery logic can be tested and fuzzed without dragging in the engine.
//
// On-disk layout of a shard directory:
//
//	snap-<gen>.ckpt   one framed TypeSnapshot record: full state at an LSN
//	wal-<gen>.log     framed mutation records with LSN > the snapshot's
//
// Both file kinds start with an 8-byte magic ("SPECWAL1"), then framed
// records:
//
//	u32le payload length | u32le CRC32C(payload) | payload
//	payload = u8 record type | u64le LSN | body bytes
//
// A checkpoint at generation g+1 covers every record with LSN ≤ its LSN, so
// recovery is: load the newest readable snapshot, then replay every log
// record with a higher LSN, in generation order. Crash windows during
// rotation (snapshot renamed but old files not yet deleted) are harmless —
// replay skips already-covered LSNs. A torn tail (a frame that runs past
// EOF, or a CRC failure on the final frame) is truncated: those bytes were
// never acknowledged durable. A CRC or framing failure with intact frames
// after it is mid-log corruption and recovery refuses it unless explicitly
// asked to repair, because silently dropping an interior record would
// diverge every session replayed past it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"
)

// Type tags a record's payload. The zero value is invalid so that an
// all-zero frame never decodes as a record.
type Type uint8

const (
	// TypeCreate records a new session: body = {id, market spec}.
	TypeCreate Type = 1
	// TypeStep records one applied churn event: body = {id, event}.
	TypeStep Type = 2
	// TypeRebuild records an adopted-capable rebuild: body = {id}. Replaying
	// it re-runs the deterministic engine, reproducing the adoption choice.
	TypeRebuild Type = 3
	// TypeDelete records a session removal: body = {id}.
	TypeDelete Type = 4
	// TypeSnapshot is the single record of a checkpoint file: body = full
	// shard state at the record's LSN.
	TypeSnapshot Type = 5
	// TypeFork records a session born as a point-in-time fork: body = the
	// child's id plus the full spec and state it started from. It carries
	// state (not a parent reference) because the child lands on its own
	// shard, where the parent's shard-local LSNs mean nothing.
	TypeFork Type = 6
)

func (t Type) String() string {
	switch t {
	case TypeCreate:
		return "create"
	case TypeStep:
		return "step"
	case TypeRebuild:
		return "rebuild"
	case TypeDelete:
		return "delete"
	case TypeSnapshot:
		return "snapshot"
	case TypeFork:
		return "fork"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Record is one framed log entry. LSN is the shard-local, strictly
// increasing sequence number that ties logs to checkpoints.
type Record struct {
	Type Type
	LSN  uint64
	Body []byte
}

// Magic opens every WAL and checkpoint file; the trailing byte versions the
// format.
var Magic = [8]byte{'S', 'P', 'E', 'C', 'W', 'A', 'L', 1}

const (
	headerSize = 8     // per-record: u32 length + u32 crc
	metaSize   = 1 + 8 // per-payload: type byte + u64 lsn
	// MaxRecordLen bounds a single payload; anything larger is treated as a
	// corrupt frame rather than an allocation request.
	MaxRecordLen = 64 << 20
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Framing and recovery errors.
var (
	// ErrTornTail reports an incomplete or CRC-failing final frame — the
	// expected signature of a crash mid-write. The intact prefix is valid.
	ErrTornTail = errors.New("wal: torn tail record")
	// ErrCorrupt reports a framing or CRC failure with intact data after it
	// — not a torn write, and not safely skippable.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrBadMagic reports a file that does not start with the WAL magic.
	ErrBadMagic = errors.New("wal: bad file magic")
	// ErrClosed reports an append to a closed or failed log.
	ErrClosed = errors.New("wal: log closed")
)

// AppendRecord appends r's framed encoding to buf and returns the extended
// slice.
func AppendRecord(buf []byte, r Record) []byte {
	n := metaSize + len(r.Body)
	var hdr [headerSize + metaSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[8] = byte(r.Type)
	binary.LittleEndian.PutUint64(hdr[9:17], r.LSN)
	crc := crc32.Update(0, castagnoli, hdr[8:])
	crc = crc32.Update(crc, castagnoli, r.Body)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, r.Body...)
}

// EncodedSize returns the framed size of a record with the given body
// length.
func EncodedSize(bodyLen int) int { return headerSize + metaSize + bodyLen }

// Scan decodes consecutive framed records from data (which must not include
// the file magic). It returns the records decoded before any failure and
// the number of bytes consumed by them. err is nil on a clean end,
// ErrTornTail when the failure can only be a truncated final write, and
// ErrCorrupt when intact bytes follow the failure.
func Scan(data []byte) (recs []Record, n int, err error) {
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < headerSize {
			return recs, off, fmt.Errorf("%w: %d trailing bytes at offset %d", ErrTornTail, rest, off)
		}
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if plen < metaSize || plen > MaxRecordLen {
			// The length field itself is garbage. If the frame claims to run
			// past EOF it is indistinguishable from a torn header; a bounded
			// bogus length mid-file is corruption.
			if plen < 0 || off+headerSize+plen >= len(data) {
				return recs, off, fmt.Errorf("%w: bad length %d at offset %d", ErrTornTail, plen, off)
			}
			return recs, off, fmt.Errorf("%w: bad length %d at offset %d", ErrCorrupt, plen, off)
		}
		if rest < headerSize+plen {
			return recs, off, fmt.Errorf("%w: frame of %d bytes exceeds %d remaining at offset %d",
				ErrTornTail, headerSize+plen, rest, off)
		}
		payload := data[off+headerSize : off+headerSize+plen]
		if crc32.Checksum(payload, castagnoli) != want {
			// A bad CRC on the very last frame is the torn-write signature; a
			// bad CRC with complete frames after it cannot be.
			if off+headerSize+plen == len(data) {
				return recs, off, fmt.Errorf("%w: crc mismatch on final record at offset %d", ErrTornTail, off)
			}
			return recs, off, fmt.Errorf("%w: crc mismatch at offset %d", ErrCorrupt, off)
		}
		typ := Type(payload[0])
		if typ < TypeCreate || typ > TypeFork {
			return recs, off, fmt.Errorf("%w: unknown record type %d at offset %d", ErrCorrupt, typ, off)
		}
		body := make([]byte, plen-metaSize)
		copy(body, payload[metaSize:])
		recs = append(recs, Record{
			Type: typ,
			LSN:  binary.LittleEndian.Uint64(payload[1:9]),
			Body: body,
		})
		off += headerSize + plen
	}
	return recs, off, nil
}

// ScanFile checks the magic and decodes every record of a WAL or checkpoint
// file's contents.
func ScanFile(data []byte) ([]Record, int, error) {
	if len(data) < len(Magic) {
		// A header shorter than the magic is a torn creation, not corruption.
		return nil, 0, fmt.Errorf("%w: %d-byte file", ErrTornTail, len(data))
	}
	if [8]byte(data[:8]) != Magic {
		return nil, 0, ErrBadMagic
	}
	recs, n, err := Scan(data[8:])
	return recs, n + 8, err
}

// SyncStats is the Log's per-fsync instrumentation callback: records and
// bytes made durable by the batch, and the wall time the write+fsync took.
// The server layer bridges it to the obs registry; wal stays
// dependency-free.
type SyncStats func(records, bytes int, took time.Duration)

// DurableFunc observes every batch the instant it becomes durable: batch is
// the exact framed bytes just written and fsynced (no magic prefix), lastLSN
// the highest LSN in it. It runs on the flushing goroutine after fsync
// succeeds and BEFORE the batch's durability callbacks fire — so anything it
// publishes (e.g. a replication stream) happens-before the client ack. It
// must not block indefinitely: the fsync path waits on it.
type DurableFunc func(batch []byte, lastLSN uint64)

// Log is an append-only record file with group commit. Append is called
// only by the owning shard goroutine and never waits on disk: it adds the
// record to the pending batch and kicks the log's syncer goroutine, which
// writes and fsyncs whatever is pending each time it is kicked. An idle log
// therefore fsyncs a lone record at once, and records appended while a
// write+fsync is in flight form the next batch. A Log never reorders: bytes
// reach the file in append order, and a callback fires only after every
// byte up to and including its record is fsynced.
type Log struct {
	path  string
	stats SyncStats

	// flushMu serializes whole flushes: the file write happens outside mu
	// (so appends never wait on disk), and without this two concurrent
	// flushes — the syncer's against Sync's or Close's — could write their
	// batches out of order on the non-O_APPEND fd.
	flushMu sync.Mutex

	mu        sync.Mutex
	f         *os.File
	pending   []byte
	cbs       []func(error)
	nrecs     int
	lastLSN   uint64 // highest LSN appended (pending or flushed)
	onDurable DurableFunc
	failed    error // sticky first write/sync error
	closed    bool

	// kick wakes the syncer. One slot is enough: a kick already waiting
	// means a flush is due that will take everything pending by then.
	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
	size int64
}

// Create creates (truncating) a log file, writes the magic, and starts the
// syncer.
func Create(path string, stats SyncStats) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(Magic[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{
		path:  path,
		stats: stats,
		f:     f,
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		size:  int64(len(Magic)),
	}
	l.wg.Add(1)
	go l.syncer()
	return l, nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// SetOnDurable installs (or clears) the post-fsync batch observer. Safe to
// call while the log is live; it takes effect for the next flushed batch.
func (l *Log) SetOnDurable(fn DurableFunc) {
	l.mu.Lock()
	l.onDurable = fn
	l.mu.Unlock()
}

// Size returns the current durable-or-pending size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size + int64(len(l.pending))
}

// Append frames r into the pending batch and kicks the syncer; onDurable
// (optional) fires with nil once the record is fsynced, or with the write
// error. Append itself never blocks on disk.
func (l *Log) Append(r Record, onDurable func(error)) {
	l.mu.Lock()
	if l.closed || l.failed != nil {
		err := l.failed
		if err == nil {
			err = ErrClosed
		}
		l.mu.Unlock()
		if onDurable != nil {
			onDurable(err)
		}
		return
	}
	l.pending = AppendRecord(l.pending, r)
	l.nrecs++
	if r.LSN > l.lastLSN {
		l.lastLSN = r.LSN
	}
	if onDurable != nil {
		l.cbs = append(l.cbs, onDurable)
	}
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default: // a kick is already waiting; its flush takes this record too
	}
}

// flush writes and fsyncs the pending batch, publishes it, and then fires
// its callbacks. Callers may race (the syncer, Sync, Close); flushMu
// serializes them so batches reach the file in the order they were taken
// from pending, and callbacks fire in append order across batches.
func (l *Log) flush() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	buf, cbs, nrecs := l.pending, l.cbs, l.nrecs
	batchLast, publish := l.lastLSN, l.onDurable
	l.pending, l.cbs, l.nrecs = nil, nil, 0
	if len(buf) == 0 || l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		for _, cb := range cbs {
			cb(err)
		}
		return err
	}
	f := l.f
	l.mu.Unlock()

	start := time.Now()
	_, err := f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	took := time.Since(start)

	l.mu.Lock()
	if err != nil {
		l.failed = err
	} else {
		l.size += int64(len(buf))
	}
	l.mu.Unlock()

	if err == nil && publish != nil {
		// Publish the durable bytes before the acks below: a subscriber (the
		// replication stream) sees every record no later than its client does.
		publish(buf, batchLast)
	}
	if err == nil && l.stats != nil {
		l.stats(nrecs, len(buf), took)
	}
	for _, cb := range cbs {
		cb(err)
	}
	return err
}

// syncer is the group-commit loop: one flush per kick, until Close. A kick
// that arrives during a flush waits in its slot, so the records appended
// meanwhile go out together in the next flush.
func (l *Log) syncer() {
	defer l.wg.Done()
	for {
		select {
		case <-l.kick:
			l.flush()
		case <-l.done:
			return
		}
	}
}

// Sync flushes the pending batch now and waits until it is durable: when
// Sync returns, every record appended before the call is on disk (or the
// log has failed, and Sync reports why).
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	return l.flush()
}

// Close flushes, fsyncs, stops the syncer, and closes the file. Idempotent;
// pending callbacks fire before Close returns.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	l.wg.Wait()
	err := l.flush()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
