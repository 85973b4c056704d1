package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"
)

// The write-ahead log. Every accepted mutation is appended as one framed
// record before it lands in the memtable; the fsynced prefix of the log
// is what survives a crash. Under simulation the log is a deterministic
// in-memory byte buffer with an explicit durable watermark; under the
// live engine it can be a real file, so appends and syncs map to real
// I/O (NoKV's wal layering, sized for this repo).
//
// Record framing, after NoKV's manager:
//
//	+--------+-------+-----------+--------+
//	| Length | Type  | Payload   | CRC32  |
//	| [4]    | [1]   | [N]       | [4]    |
//	+--------+-------+-----------+--------+
//
// Length covers Type+Payload; the CRC covers Type+Payload. A cell
// payload is keyLen(4) key ts(8) seq(8) tombstone(1) valLen(4) value.

const (
	walRecordCell  = byte(1)
	walHeaderBytes = 4
	walCRCBytes    = 4
)

var (
	// errTornRecord marks a record cut short by a crash mid-append: the
	// replay keeps the consistent prefix before it.
	errTornRecord = errors.New("storage: torn wal record")
	// errCorruptRecord marks a checksum or framing mismatch.
	errCorruptRecord = errors.New("storage: corrupt wal record")
)

// appendWALRecord encodes one cell record onto buf and returns the
// extended slice.
func appendWALRecord(buf []byte, key string, c Cell) []byte {
	payload := 1 + 4 + len(key) + 8 + 8 + 1 + 4 + len(c.Value) // type byte included in length
	var hdr [walHeaderBytes]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(payload))
	buf = append(buf, hdr[:]...)
	body := len(buf)
	buf = append(buf, walRecordCell)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.Version.Timestamp))
	buf = binary.BigEndian.AppendUint64(buf, c.Version.Seq)
	tomb := byte(0)
	if c.Tombstone {
		tomb = 1
	}
	buf = append(buf, tomb)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Value)))
	buf = append(buf, c.Value...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[body:]))
}

// decodeWALRecord decodes the record starting at off. It returns the key,
// cell and total encoded size. errTornRecord means the log ends inside
// the record (a crash mid-append); errCorruptRecord means framing or
// checksum damage.
func decodeWALRecord(log []byte, off int) (key string, c Cell, n int, err error) {
	rest := log[off:]
	if len(rest) < walHeaderBytes {
		return "", Cell{}, 0, errTornRecord
	}
	length := int(binary.BigEndian.Uint32(rest))
	if length < 1+4+8+8+1+4 {
		return "", Cell{}, 0, errCorruptRecord
	}
	total := walHeaderBytes + length + walCRCBytes
	if len(rest) < total {
		return "", Cell{}, 0, errTornRecord
	}
	body := rest[walHeaderBytes : walHeaderBytes+length]
	sum := binary.BigEndian.Uint32(rest[walHeaderBytes+length:])
	if crc32.ChecksumIEEE(body) != sum {
		return "", Cell{}, 0, errCorruptRecord
	}
	if body[0] != walRecordCell {
		return "", Cell{}, 0, errCorruptRecord
	}
	p := body[1:]
	keyLen := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if len(p) < keyLen+8+8+1+4 {
		return "", Cell{}, 0, errCorruptRecord
	}
	key = string(p[:keyLen])
	p = p[keyLen:]
	c.Version.Timestamp = time.Duration(binary.BigEndian.Uint64(p))
	c.Version.Seq = binary.BigEndian.Uint64(p[8:])
	if p[16] > 1 {
		// The encoder writes only 0 or 1; any other flag byte would not
		// re-encode to the record it came from.
		return "", Cell{}, 0, errCorruptRecord
	}
	c.Tombstone = p[16] == 1
	valLen := int(binary.BigEndian.Uint32(p[17:]))
	p = p[21:]
	if len(p) != valLen {
		return "", Cell{}, 0, errCorruptRecord
	}
	if valLen > 0 {
		c.Value = append([]byte(nil), p...)
	}
	return key, c, total, nil
}

// walog is the byte-log substrate of the LSM engine's WAL: an in-memory
// buffer under simulation, a real file under the live engine. Appends
// buffer; sync moves the durable watermark; crash discards everything
// past it.
type walog interface {
	append(rec []byte)
	sync()
	unsynced() int64
	// durable returns the fsynced prefix (what survives a crash). The
	// returned slice is only valid until the next mutation.
	durable() []byte
	// reset discards the whole log (the memtable it covered was flushed
	// to a durable run).
	reset()
	// crash discards the un-fsynced tail.
	crash()
	close() error
}

// memWAL is the deterministic in-memory log used under simulation.
type memWAL struct {
	buf    []byte
	synced int
}

func (w *memWAL) append(rec []byte) { w.buf = append(w.buf, rec...) }
func (w *memWAL) sync()             { w.synced = len(w.buf) }
func (w *memWAL) unsynced() int64   { return int64(len(w.buf) - w.synced) }
func (w *memWAL) durable() []byte   { return w.buf[:w.synced] }
func (w *memWAL) reset()            { w.buf, w.synced = w.buf[:0], 0 }
func (w *memWAL) crash()            { w.buf = w.buf[:w.synced] }
func (w *memWAL) close() error      { return nil }

// fileWAL backs the log with a real file: append writes, sync fsyncs,
// crash truncates to the fsynced offset (what a power cut could leave).
type fileWAL struct {
	f        *os.File
	appended int64
	synced   int64
}

func newFileWAL(path string) (*fileWAL, error) {
	//repolint:allow simpure live-only file WAL; the sim engine runs on memWAL
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: wal: %w", err)
	}
	return &fileWAL{f: f}, nil
}

func (w *fileWAL) append(rec []byte) {
	n, err := w.f.WriteAt(rec, w.appended)
	if err != nil {
		panic(fmt.Sprintf("storage: wal append: %v", err))
	}
	w.appended += int64(n)
}

func (w *fileWAL) sync() {
	if err := w.f.Sync(); err != nil {
		panic(fmt.Sprintf("storage: wal sync: %v", err))
	}
	w.synced = w.appended
}

func (w *fileWAL) unsynced() int64 { return w.appended - w.synced }

func (w *fileWAL) durable() []byte {
	buf := make([]byte, w.synced)
	if _, err := w.f.ReadAt(buf, 0); err != nil {
		panic(fmt.Sprintf("storage: wal read: %v", err))
	}
	return buf
}

func (w *fileWAL) reset() {
	//repolint:allow simpure live-only file WAL; the sim engine runs on memWAL
	if err := w.f.Truncate(0); err != nil {
		panic(fmt.Sprintf("storage: wal truncate: %v", err))
	}
	w.appended, w.synced = 0, 0
}

func (w *fileWAL) crash() {
	//repolint:allow simpure live-only file WAL; the sim engine runs on memWAL
	if err := w.f.Truncate(w.synced); err != nil {
		panic(fmt.Sprintf("storage: wal truncate: %v", err))
	}
	w.appended = w.synced
}

func (w *fileWAL) close() error { return w.f.Close() }
