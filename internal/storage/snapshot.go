package storage

// Snapshot streaming: an engine exposes its resident cells as a
// point-in-time iterator in sorted key order, and the wire codec frames
// cells with the WAL's length+CRC record format so a stream can be
// chunked, sized for the traffic meter, and verified on arrival. This is
// the mechanism behind bootstrap/rejoin streaming at the store layer
// (Cassandra's bootstrap and repair streaming): the sender walks a
// consistent snapshot, the receiver applies each framed cell through the
// normal last-write-wins path, so a stream is idempotent and can overlap
// hints and anti-entropy without conflict.
//
// SnapshotRanges is the range-addressed form: the key index remembers
// each key's ring token, so membership streams ask for exactly the
// moved arcs (ring.Diff) and the engine walks only those cells.

import "repro/internal/ring"

// SnapshotIter walks a consistent point-in-time snapshot of an engine in
// sorted key order. Next returns ok=false when the snapshot is
// exhausted. Mutations made after the snapshot was taken do not appear.
type SnapshotIter interface {
	Next() (key string, c Cell, ok bool)
	// Remaining reports an upper bound on the cells the iterator has
	// left (exact for the mem engine; for the LSM engine superseded run
	// entries that will be skipped are still counted).
	Remaining() int
}

// memSnapshot is a materialized snapshot (cells copied at snapshot time).
type memSnapshot struct {
	entries []runEntry
	pos     int
}

func (s *memSnapshot) Next() (string, Cell, bool) {
	if s.pos >= len(s.entries) {
		return "", Cell{}, false
	}
	e := s.entries[s.pos]
	s.pos++
	return e.key, e.cell, true
}

func (s *memSnapshot) Remaining() int { return len(s.entries) - s.pos }

// Snapshot returns a point-in-time iterator over the mem engine's
// resident cells: the cells are copied out under the sorted key index,
// so later mutations do not leak into the stream.
func (e *MemEngine) Snapshot() SnapshotIter {
	keys := e.keys.sortedKeys()
	entries := make([]runEntry, 0, len(keys))
	for _, k := range keys {
		if c, ok := e.cells[k]; ok {
			entries = append(entries, runEntry{key: k, cell: c})
		}
	}
	return &memSnapshot{entries: entries}
}

// SnapshotRanges returns a point-in-time iterator restricted to the
// given token ranges: only resident cells whose key tokens fall inside
// one of the arcs appear, still in sorted key order. An empty range set
// yields an empty snapshot.
func (e *MemEngine) SnapshotRanges(ranges []ring.Range) SnapshotIter {
	keys, toks := e.keys.sortedView()
	var entries []runEntry
	for i, k := range keys {
		if !ring.RangesContain(ranges, toks[i]) {
			continue
		}
		if c, ok := e.cells[k]; ok {
			entries = append(entries, runEntry{key: k, cell: c})
		}
	}
	return &memSnapshot{entries: entries}
}

// lsmSnapshot merge-iterates a captured set of immutable sorted runs,
// oldest first in the slice, newest-run-wins per key.
type lsmSnapshot struct {
	runs      []run // immutable; compaction replaces the engine's slice, not the runs
	pos       []int
	remaining int
}

// newLSMSnapshot merge-iterates runs (oldest first). The run headers are
// copied, so the caller may replace its own slice afterwards.
func newLSMSnapshot(runs []run) *lsmSnapshot {
	s := &lsmSnapshot{runs: append([]run(nil), runs...), pos: make([]int, len(runs))}
	for i := range runs {
		s.remaining += len(runs[i].entries)
	}
	return s
}

func (s *lsmSnapshot) Next() (string, Cell, bool) {
	// Find the smallest resident key across runs; among equal keys the
	// newest run (highest index) wins and the older entries are skipped.
	best := -1
	for i := range s.runs {
		if s.pos[i] >= len(s.runs[i].entries) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		bk, ik := s.runs[best].entries[s.pos[best]].key, s.runs[i].entries[s.pos[i]].key
		if ik <= bk {
			// i > best in slice order means i is the newer run; on key
			// ties the newer run supersedes.
			best = i
		}
	}
	if best < 0 {
		return "", Cell{}, false
	}
	ent := s.runs[best].entries[s.pos[best]]
	// Advance every run past this key (superseded duplicates drop out).
	for i := range s.runs {
		for s.pos[i] < len(s.runs[i].entries) && s.runs[i].entries[s.pos[i]].key == ent.key {
			s.pos[i]++
			s.remaining--
		}
	}
	return ent.key, ent.cell, true
}

func (s *lsmSnapshot) Remaining() int { return s.remaining }

// Snapshot returns a point-in-time iterator over the LSM engine's
// resident cells. The memtable is sealed into a run first (Cassandra
// flushes before streaming), so the snapshot is exactly the immutable
// sorted runs at this instant: later writes land in a fresh memtable and
// later flushes append new runs, neither of which the captured run set
// references.
func (e *LSMEngine) Snapshot() SnapshotIter {
	e.Flush()
	return newLSMSnapshot(e.runs)
}

// SnapshotRanges returns a point-in-time iterator restricted to the
// given token ranges. The memtable is sealed first exactly like
// Snapshot (so range- and full snapshots have identical flush side
// effects); matching cells are then materialized through the key index
// and Peek, which reads the same newest-run-wins view the merge
// iterator would. An empty range set yields an empty snapshot (but
// still flushes).
func (e *LSMEngine) SnapshotRanges(ranges []ring.Range) SnapshotIter {
	e.Flush()
	keys, toks := e.keys.sortedView()
	var entries []runEntry
	for i, k := range keys {
		if !ring.RangesContain(ranges, toks[i]) {
			continue
		}
		if c, ok := e.Peek(k); ok {
			entries = append(entries, runEntry{key: k, cell: c})
		}
	}
	return &memSnapshot{entries: entries}
}

// EncodeCell appends the framed wire encoding of one (key, cell) pair to
// buf and returns the extended slice. The framing is the WAL record
// format (length + type + payload + CRC32), so a snapshot stream is
// torn- and corruption-detectable exactly like a log replay.
func EncodeCell(buf []byte, key string, c Cell) []byte {
	return appendWALRecord(buf, key, c)
}

// DecodeCell decodes one framed cell starting at off, returning the key,
// cell and total encoded size. Errors mirror WAL replay: a torn record
// means the stream was cut short, a corrupt one means checksum damage.
func DecodeCell(data []byte, off int) (key string, c Cell, n int, err error) {
	return decodeWALRecord(data, off)
}

// ApplyEncoded decodes every framed cell in data and applies it to the
// engine through the normal last-write-wins path. It returns how many
// cells were decoded and how many were accepted as the new resident
// version; err is non-nil when the buffer ends in a torn or corrupt
// record (the consistent prefix before it is still applied).
func ApplyEncoded(e Engine, data []byte) (total, applied int, err error) {
	off := 0
	for off < len(data) {
		key, cell, n, derr := DecodeCell(data, off)
		if derr != nil {
			return total, applied, derr
		}
		total++
		if e.Apply(key, cell) {
			applied++
		}
		off += n
	}
	return total, applied, nil
}
