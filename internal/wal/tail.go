package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// This file is the read side of replication: NewestSnapshot answers the
// truncation-horizon question ("which LSNs are only available as a
// checkpoint?"), Tail follows a live shard directory's log across
// checkpoint rotations, and ReadMagic/ReadRecord decode the identical
// framing from a byte stream (the replication wire format IS the file
// format, so a follower can append what it reads verbatim).

// ReadMagic consumes and verifies the 8-byte file magic from r — the first
// bytes of a WAL file or of a replication stream.
func ReadMagic(r io.Reader) error {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return err
	}
	if m != Magic {
		return ErrBadMagic
	}
	return nil
}

// ReadRecord reads one framed record from r, blocking until it is fully
// available. io.EOF between frames is a clean end of stream;
// io.ErrUnexpectedEOF mid-frame is a torn stream.
func ReadRecord(r io.Reader) (Record, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, err
	}
	plen := int(binary.LittleEndian.Uint32(hdr[0:4]))
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if plen < metaSize || plen > MaxRecordLen {
		return Record{}, fmt.Errorf("%w: bad length %d", ErrCorrupt, plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return Record{}, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	typ := Type(payload[0])
	if typ < TypeCreate || typ > TypeFork {
		return Record{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, typ)
	}
	return Record{
		Type: typ,
		LSN:  binary.LittleEndian.Uint64(payload[1:9]),
		Body: payload[metaSize:],
	}, nil
}

// NewestSnapshot returns the newest readable checkpoint of a shard
// directory: its body and LSN, with ok=false when the directory holds no
// readable checkpoint. This is the truncation horizon — log records with
// LSN ≤ the returned LSN may no longer exist as log frames.
func NewestSnapshot(path string) (body []byte, lsn uint64, ok bool, err error) {
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, 0, false, err
	}
	var gens []uint64
	for _, e := range entries {
		if g, okk := parseGen(e.Name(), "snap-", ".ckpt"); okk {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, g := range gens {
		b, l, rerr := readSnapshotFile(filepath.Join(path, snapName(g)))
		if rerr != nil {
			// A torn or half-rotated newer snapshot is skippable for
			// streaming: an older complete one (or the logs) still covers
			// everything acknowledged.
			continue
		}
		return b, l, true, nil
	}
	return nil, 0, false, nil
}

// Tail follows a live shard directory's log files, in LSN order, across
// checkpoint rotations, without coordinating with the writer: it reads
// bytes that are already in the files and treats an incomplete final frame
// as "not yet" rather than "torn". Bytes in a file are not yet durable — a
// Log writes a batch before it fsyncs it — so Next releases only records up
// to a bound the caller knows to be durable and holds back the rest. The
// writer's rotation protocol makes the generation switch observable: a
// superseded log is fully synced before the rotation completes, and its
// path is unlinked only after the next generation is durable — so Tail
// switches generations exactly when the file it is reading has disappeared
// from the directory and it has consumed the file to a clean end.
//
// Tail is not safe for concurrent use.
type Tail struct {
	dir       string
	cursor    uint64   // highest LSN returned (or the starting point)
	held      []Record // read but past the last bound, in LSN order
	seen      uint64   // highest LSN read: cursor, or the last held record
	gen       uint64   // generation currently open; 0 = none yet
	f         *os.File
	off       int64
	buf       []byte
	magicDone bool
}

// OpenTail prepares to read a shard directory's log records with LSN >
// fromLSN. No I/O happens until Next.
func OpenTail(dir string, fromLSN uint64) *Tail {
	return &Tail{dir: dir, cursor: fromLSN, seen: fromLSN}
}

// Cursor returns the highest LSN returned so far (or the starting point).
func (t *Tail) Cursor() uint64 { return t.cursor }

// Close releases the open file, if any.
func (t *Tail) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

// Next returns, in LSN order, every record now readable past the cursor
// with LSN ≤ upTo, or nil when there is none yet — the caller polls.
// Records the files already hold past upTo are kept back, in order, until a
// later call's bound covers them; callers pass the highest LSN they know
// to be durable, so Next never hands out a record a crash could still take
// back. A nil, nil return is never an error; real damage (mid-log
// corruption) is.
func (t *Tail) Next(upTo uint64) ([]Record, error) {
	var out []Record
	n := 0
	for n < len(t.held) && t.held[n].LSN <= upTo {
		n++
	}
	out, t.held = append(out, t.held[:n]...), t.held[n:]
	if n > 0 {
		t.cursor = out[n-1].LSN
	}
	if len(t.held) > 0 {
		return out, nil // anything read now would be past upTo as well
	}
	for {
		if t.f == nil {
			ok, err := t.open()
			if err != nil {
				return out, err
			}
			if !ok {
				return out, nil // nothing to read yet
			}
		}
		if err := t.drain(&out, upTo); err != nil {
			return out, err
		}
		// Clean end of the readable bytes. If the file is still in the
		// directory we are caught up; if it is gone it was superseded by a
		// completed rotation. A superseded log is final at unlink time but
		// our read may predate its last flush, so drain once more through
		// the still-open fd before moving to the next generation.
		if _, serr := os.Stat(filepath.Join(t.dir, logName(t.gen))); serr == nil {
			return out, nil
		} else if !os.IsNotExist(serr) {
			return out, serr
		}
		if err := t.drain(&out, upTo); err != nil {
			return out, err
		}
		if len(t.buf) > 0 {
			// Unlinked with a torn tail: superseded logs are synced before
			// rotation, so this cannot be a crash artifact.
			return out, fmt.Errorf("%w: %d trailing bytes in rotated-away %s", ErrCorrupt, len(t.buf), logName(t.gen))
		}
		_ = t.Close()
	}
}

// drain reads all currently complete frames: the new ones up to upTo go to
// out, and the first past it and everything after go to held.
func (t *Tail) drain(out *[]Record, upTo uint64) error {
	recs, err := t.read()
	for _, r := range recs {
		if r.LSN <= t.seen {
			continue // resume or rotation overlap
		}
		t.seen = r.LSN
		if len(t.held) == 0 && r.LSN <= upTo {
			t.cursor = r.LSN
			*out = append(*out, r)
		} else {
			t.held = append(t.held, r)
		}
	}
	return err
}

// open finds and opens the next log file to read: the smallest generation >
// the one last consumed (or the smallest present, initially). Returns
// ok=false when no such log exists yet.
func (t *Tail) open() (bool, error) {
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return false, err
	}
	best, found := uint64(0), false
	for _, e := range entries {
		g, ok := parseGen(e.Name(), "wal-", ".log")
		if !ok || g <= t.gen {
			continue
		}
		if !found || g < best {
			best, found = g, true
		}
	}
	if !found {
		return false, nil
	}
	f, err := os.Open(filepath.Join(t.dir, logName(best)))
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil // raced a rotation's cleanup; retry next poll
		}
		return false, err
	}
	t.f, t.gen, t.off, t.buf, t.magicDone = f, best, 0, nil, false
	return true, nil
}

// read consumes whatever complete frames are currently on disk past t.off.
// An incomplete tail is buffered and retried on the next call.
func (t *Tail) read() ([]Record, error) {
	st, err := t.f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() <= t.off {
		return nil, nil
	}
	chunk := make([]byte, st.Size()-t.off)
	if _, err := io.ReadFull(io.NewSectionReader(t.f, t.off, int64(len(chunk))), chunk); err != nil {
		return nil, err
	}
	t.off += int64(len(chunk))
	data := append(t.buf, chunk...)
	if !t.magicDone {
		// First bytes of this file: strip and verify the magic. A file
		// shorter than the magic is a creation still in flight.
		if len(data) < len(Magic) {
			t.buf = data
			return nil, nil
		}
		if [8]byte(data[:8]) != Magic {
			return nil, fmt.Errorf("%s: %w", logName(t.gen), ErrBadMagic)
		}
		data = data[8:]
		t.magicDone = true
	}
	recs, n, serr := Scan(data)
	t.buf = data[n:]
	if serr != nil && !errors.Is(serr, ErrTornTail) {
		return recs, fmt.Errorf("%s: %w", logName(t.gen), serr)
	}
	return recs, nil
}
