package storage

import (
	"bytes"
	"testing"
)

// FuzzDecodeCell fuzzes the framed cell decoder that WAL replay and
// snapshot streaming trust with bytes from a log or a peer. On arbitrary
// input it must not panic; every cell it decodes must re-encode through
// EncodeCell to exactly the bytes it was decoded from; and ApplyEncoded
// must apply exactly the consistent prefix — the cells before the first
// torn or corrupt record — reporting an error iff such a record ends
// the buffer. The seed corpus lives in testdata/fuzz/FuzzDecodeCell.
func FuzzDecodeCell(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := NewMemEngine(0)
		var prefix []runEntry
		accepted, off := 0, 0
		var derr error
		for off < len(data) {
			key, c, n, err := DecodeCell(data, off)
			if err != nil {
				derr = err
				break
			}
			if n <= 0 || off+n > len(data) {
				t.Fatalf("decode at %d consumed %d of %d bytes", off, n, len(data)-off)
			}
			if re := EncodeCell(nil, key, c); !bytes.Equal(re, data[off:off+n]) {
				t.Fatalf("cell at %d re-encodes to %x, decoded from %x", off, re, data[off:off+n])
			}
			prefix = append(prefix, runEntry{key: key, cell: c})
			if ref.Apply(key, c) {
				accepted++
			}
			off += n
		}
		for _, e := range []Engine{NewMemEngine(0), NewLSMEngine(Options{FlushLimit: 256, MaxRuns: 2})} {
			total, applied, err := ApplyEncoded(e, data)
			if total != len(prefix) || applied != accepted || (err == nil) != (derr == nil) {
				t.Fatalf("ApplyEncoded = %d, %d, %v; consistent prefix has %d cells, %d accepted, end %v",
					total, applied, err, len(prefix), accepted, derr)
			}
			if got, want := snapshot(e), snapshot(ref); got != want {
				t.Fatalf("ApplyEncoded state %s, want %s", got, want)
			}
		}
	})
}
