package storage

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// BenchmarkWALAppend measures the WAL-logged apply path of the LSM
// engine (encode + append + per-record sync + memtable insert), the
// per-mutation overhead the durable engine adds over the map engine.
func BenchmarkWALAppend(b *testing.B) {
	e := NewLSMEngine(Options{FlushLimit: 0, SyncBytes: 0, MaxRuns: 64})
	val := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		e.Apply(fmt.Sprintf("user%08d", i%4096), Cell{
			Version: Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   val,
		})
	}
}

// BenchmarkMergeRead measures Get across a populated memtable plus
// three sorted runs — the read amplification of the LSM-lite layout,
// memtable-hit and run-probe paths both in the mix.
func BenchmarkMergeRead(b *testing.B) {
	e := NewLSMEngine(Options{FlushLimit: 0, SyncBytes: 1 << 20, MaxRuns: 64})
	const records = 4096
	var seq uint64
	for r := 0; r < 4; r++ {
		for i := r; i < records; i += 4 { // striped: each layer holds 1/4 of the keys
			seq++
			e.Apply(fmt.Sprintf("user%08d", i), Cell{
				Version: Version{Timestamp: time.Duration(seq), Seq: seq},
				Value:   make([]byte, 128),
			})
		}
		if r < 3 {
			e.Flush() // three sealed runs; the last stripe stays in the memtable
		}
	}
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Get(keys[i%records]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSnapshotStream measures the full rejoin-streaming pipeline:
// snapshot-iterate a populated LSM engine, serialize every cell through
// the framed codec, and apply the chunks on a fresh mem engine — the
// per-cell cost of moving a replica's range during Join/Decommission.
func BenchmarkSnapshotStream(b *testing.B) {
	src := NewLSMEngine(Options{FlushLimit: 64 << 10, SyncBytes: 1 << 20, MaxRuns: 8})
	const records = 4096
	for i := 0; i < records; i++ {
		seq := uint64(i + 1)
		src.Apply(fmt.Sprintf("user%08d", i), Cell{
			Version: Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   make([]byte, 128),
		})
	}
	var chunk []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += records {
		dst := NewMemEngine(0)
		it := src.Snapshot()
		for {
			k, c, ok := it.Next()
			if !ok {
				break
			}
			chunk = EncodeCell(chunk[:0], k, c)
			if _, _, err := ApplyEncoded(dst, chunk); err != nil {
				b.Fatal(err)
			}
		}
		if dst.Len() != records {
			b.Fatalf("streamed %d of %d cells", dst.Len(), records)
		}
	}
}

// BenchmarkMemApply pins the volatile engine's apply path for
// comparison.
func BenchmarkMemApply(b *testing.B) {
	e := NewMemEngine(0)
	val := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		e.Apply(fmt.Sprintf("user%08d", i%4096), Cell{
			Version: Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   val,
		})
	}
}

// BenchmarkLSMOverwrite measures the LSM write path in the shape of a
// serving write workload: 50k preloaded keys, 100 B values, a 1 MiB
// flush limit, the serving WAL sync cadence and the default MaxRuns,
// overwritten uniformly with rising versions. Every op pays the
// last-write-wins admission, the WAL append and its share of flushes
// and compactions.
func BenchmarkLSMOverwrite(b *testing.B) {
	e := NewLSMEngine(Options{FlushLimit: 1 << 20, SyncBytes: 16 << 10})
	keys := make([]string, 50_000)
	val := make([]byte, 100)
	var seq uint64
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
		seq++
		e.Apply(keys[i], Cell{Version: Version{Timestamp: time.Duration(seq), Seq: seq}, Value: val})
	}
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		e.Apply(keys[rng.IntN(len(keys))], Cell{
			Version: Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   val,
		})
	}
}
