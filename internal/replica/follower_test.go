package replica

import (
	"bufio"
	"bytes"
	"errors"
	"testing"

	"specmatch/internal/wal"
)

// threeFrames frames LSNs 1..3 as a stream body and returns the offset
// where each frame ends.
func threeFrames() ([]byte, []int) {
	var stream []byte
	var ends []int
	for lsn := uint64(1); lsn <= 3; lsn++ {
		stream = wal.AppendRecord(stream, wal.Record{Type: wal.TypeStep, LSN: lsn, Body: []byte("step body")})
		ends = append(ends, len(stream))
	}
	return stream, ends
}

// TestBufferedRecordCorruptFrame: a fully buffered frame that fails its CRC
// is an error. Its bytes are consumed by the failed read, so reporting
// ok=false instead would let the next read return LSN 3 and silently skip
// LSN 2.
func TestBufferedRecordCorruptFrame(t *testing.T) {
	stream, ends := threeFrames()
	stream[ends[1]-1] ^= 0xff // last body byte of the LSN-2 frame
	br := bufio.NewReader(bytes.NewReader(stream))
	if rec, err := wal.ReadRecord(br); err != nil || rec.LSN != 1 {
		t.Fatalf("first frame: lsn %d, err %v", rec.LSN, err)
	}
	rec, ok, err := bufferedRecord(br)
	if !errors.Is(err, wal.ErrCorrupt) || ok {
		t.Fatalf("corrupt buffered frame: lsn %d ok=%v err=%v, want wal.ErrCorrupt", rec.LSN, ok, err)
	}
}

// TestBufferedRecordIntactAndPartial: intact buffered frames decode in
// order, and a frame that is only partly buffered is ok=false with no
// error — the rest may still be on the socket.
func TestBufferedRecordIntactAndPartial(t *testing.T) {
	stream, _ := threeFrames()
	br := bufio.NewReader(bytes.NewReader(stream[:len(stream)-1]))
	if rec, err := wal.ReadRecord(br); err != nil || rec.LSN != 1 {
		t.Fatalf("first frame: lsn %d, err %v", rec.LSN, err)
	}
	if rec, ok, err := bufferedRecord(br); err != nil || !ok || rec.LSN != 2 {
		t.Fatalf("second frame: lsn %d ok=%v err=%v, want lsn 2", rec.LSN, ok, err)
	}
	if rec, ok, err := bufferedRecord(br); err != nil || ok {
		t.Fatalf("partial third frame: lsn %d ok=%v err=%v, want ok=false and no error", rec.LSN, ok, err)
	}
}
