package storage

import (
	"slices"
	"sort"
	"strings"
)

// runEntry is one key's cell inside an immutable sorted run.
type runEntry struct {
	key  string
	cell Cell
}

// run is an immutable sorted run sealed from a memtable flush (or built
// by compaction). Runs are "on disk": they survive Crash.
type run struct {
	entries []runEntry
	bytes   int64
}

// find binary-searches the run for key.
func (r *run) find(key string) (Cell, bool) {
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].key >= key })
	if i < len(r.entries) && r.entries[i].key == key {
		return r.entries[i].cell, true
	}
	return Cell{}, false
}

// residentEntry is the resident index's record of one key: the version
// and size of the cell a read of that key returns.
type residentEntry struct {
	version Version
	size    uint32
}

// LSMEngine is the durable LSM-lite engine: an append-only WAL ahead of
// an in-memory memtable, immutable sorted runs sealed by flushes, and
// size-tiered compaction merging runs once enough accumulate.
//
// A resident index maps every key to the version and size of its
// resident cell. Apply admits a write with one index lookup instead of a
// merge-read, and the byte accounting reads sizes from it.
//
// Reads merge across the memtable and the runs newest-first. Because
// Apply enforces last-write-wins against the resident version before
// admitting a cell, a memtable entry always supersedes every run entry
// for its key, and a newer run's entry always supersedes an older run's —
// so the first hit in memtable → newest run → ... → oldest run order is
// the resident cell, and compaction is a newest-run-wins merge of
// already-sorted runs.
//
// Crash drops the memtable, the resident index and the un-fsynced WAL
// tail; the runs and the fsynced WAL prefix survive. Recover rebuilds the
// index from the runs and replays that prefix, stopping at the first torn
// or corrupt record (consistent-prefix recovery); whatever was lost past
// the durability point comes back via hinted handoff and anti-entropy,
// exactly like a lagging replica.
//
// Tombstones flow through WAL, memtable, runs and compaction like any
// other cell: compaction keeps them even when they win (no GC grace
// tracking here), so a late out-of-order write older than the deletion
// still loses — the property that keeps replica application commutative.
type LSMEngine struct {
	opts     Options
	wal      walog
	mem      map[string]Cell
	runs     []run // oldest first
	keys     keyIndex
	resident map[string]residentEntry // resident index: every key, memtable and runs

	memBytes    int64
	totalBytes  int64
	pendingRecs uint64 // records appended since the last sync
	replaying   bool   // Recover replay in flight: skip re-counting writes
	crashed     bool   // Crash happened; Recover has not run yet
	scratch     []byte // record-encode buffer, reused across appends
	stats       Stats
}

// NewLSMEngine builds an LSM engine from opts. A file-backed WAL is used
// when opts.Path is set (panics on I/O errors: storage engines run under
// deterministic drivers with no error channel, and a broken WAL file is
// fatal to the node anyway).
func NewLSMEngine(opts Options) *LSMEngine {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 4
	}
	e := &LSMEngine{opts: opts, mem: make(map[string]Cell), resident: make(map[string]residentEntry)}
	if opts.Path != "" {
		w, err := newFileWAL(opts.Path)
		if err != nil {
			panic(err.Error())
		}
		e.wal = w
	} else {
		e.wal = &memWAL{}
	}
	return e
}

// Get returns the resident cell for key via merge-read.
func (e *LSMEngine) Get(key string) (Cell, bool) {
	e.stats.Reads++
	return e.Peek(key)
}

// Peek is Get without touching the read counters.
func (e *LSMEngine) Peek(key string) (Cell, bool) {
	if c, ok := e.mem[key]; ok {
		return c, ok
	}
	for i := len(e.runs) - 1; i >= 0; i-- {
		if c, ok := e.runs[i].find(key); ok {
			return c, true
		}
	}
	return Cell{}, false
}

// Apply merges cell into the engine under last-write-wins, judged
// against the resident index: the accepted cell is WAL-logged before it
// lands in the memtable.
func (e *LSMEngine) Apply(key string, c Cell) bool {
	if !e.replaying {
		e.stats.Writes++
	}
	old, exists := e.resident[key]
	if exists && !c.Version.After(old.version) {
		if !e.replaying {
			e.stats.Rejected++
		}
		return false
	}
	e.logRecord(key, c)
	size := int64(c.Size())
	if prev, inMem := e.mem[key]; inMem {
		e.memBytes += size - int64(prev.Size())
	} else {
		e.memBytes += size
	}
	e.mem[key] = c
	if !exists {
		e.keys.add(key)
	}
	e.resident[key] = residentEntry{version: c.Version, size: uint32(size)}
	e.totalBytes += size - int64(old.size)
	if e.opts.FlushLimit > 0 && e.memBytes >= e.opts.FlushLimit {
		e.Flush()
	}
	return true
}

// logRecord appends the cell to the WAL and syncs per the cadence. The
// encode buffer is engine-owned scratch (both logs copy the record out
// before returning), so the steady-state append allocates nothing.
func (e *LSMEngine) logRecord(key string, c Cell) {
	e.scratch = appendWALRecord(e.scratch[:0], key, c)
	rec := e.scratch
	e.wal.append(rec)
	e.stats.WALAppends++
	e.stats.WALBytes += uint64(len(rec))
	e.pendingRecs++
	if e.opts.SyncBytes <= 0 || e.wal.unsynced() >= e.opts.SyncBytes {
		e.sync()
	}
}

func (e *LSMEngine) sync() {
	if e.pendingRecs == 0 {
		return
	}
	e.wal.sync()
	e.stats.WALSyncs++
	e.pendingRecs = 0
}

// Delete applies a tombstone with the given version.
func (e *LSMEngine) Delete(key string, v Version) bool {
	return e.Apply(key, Cell{Version: v, Tombstone: true})
}

// Len reports the number of resident keys (tombstones included).
func (e *LSMEngine) Len() int { return e.keys.count() }

// Bytes reports the live (resident) data size in bytes.
func (e *LSMEngine) Bytes() int64 { return e.totalBytes }

// Stats reports the engine counters plus the current run shape.
func (e *LSMEngine) Stats() Stats {
	s := e.stats
	s.Runs = len(e.runs)
	for i := range e.runs {
		s.RunEntries += len(e.runs[i].entries)
	}
	return s
}

// KeyCount reports the number of distinct keys resident.
func (e *LSMEngine) KeyCount() int { return e.keys.count() }

// KeyAt returns the i-th key in insertion order (post-recovery the order
// is rebuild order: run entries oldest-run-first, then WAL replay).
func (e *LSMEngine) KeyAt(i int) string { return e.keys.at(i) }

// Keys returns all resident keys in sorted order. Callers must not
// mutate the returned slice.
func (e *LSMEngine) Keys() []string { return e.keys.sortedKeys() }

// Scan visits resident cells with from <= key < to in sorted order,
// merge-reading each key (tombstones included).
func (e *LSMEngine) Scan(from, to string, fn func(key string, c Cell) bool) {
	scanSorted(e.keys.sortedKeys(), from, to, e.Peek, fn)
}

// Range calls fn for every resident cell in unspecified order until fn
// returns false.
func (e *LSMEngine) Range(fn func(key string, c Cell) bool) {
	for _, k := range e.keys.list {
		c, ok := e.Peek(k)
		if !ok {
			continue
		}
		if !fn(k, c) {
			return
		}
	}
}

// Flush seals the memtable into an immutable sorted run, truncates the
// WAL (the run is durable now) and triggers size-tiered compaction when
// enough runs piled up.
func (e *LSMEngine) Flush() {
	if len(e.mem) == 0 {
		return
	}
	r := run{entries: make([]runEntry, 0, len(e.mem))}
	for k, c := range e.mem {
		r.entries = append(r.entries, runEntry{key: k, cell: c})
		r.bytes += int64(c.Size())
	}
	slices.SortFunc(r.entries, func(a, b runEntry) int { return strings.Compare(a.key, b.key) })
	e.runs = append(e.runs, r)
	e.stats.Flushes++
	e.stats.FlushedBytes += uint64(e.memBytes)
	clear(e.mem)
	e.memBytes = 0
	e.wal.reset()
	e.pendingRecs = 0
	if len(e.runs) >= e.opts.MaxRuns {
		e.compact()
	}
}

// compact merges every run into one, keeping only the newest version per
// key (size-tiered full merge — one tier, sized for this repo). The runs
// are already sorted and newer runs hold newer versions (see the type
// comment), so the merge is one pass of the snapshot iterator's
// newest-run-wins merge into a run presized to the resident key count:
// compaction only runs right after a flush, when every resident key
// lives in the runs. Tombstones survive the merge when they win.
func (e *LSMEngine) compact() {
	if len(e.runs) <= 1 {
		return
	}
	var inBytes int64
	for i := range e.runs {
		inBytes += e.runs[i].bytes
	}
	it := newLSMSnapshot(e.runs)
	merged := run{entries: make([]runEntry, 0, len(e.resident))}
	for {
		k, c, ok := it.Next()
		if !ok {
			break
		}
		merged.entries = append(merged.entries, runEntry{key: k, cell: c})
		merged.bytes += int64(c.Size())
	}
	e.runs = e.runs[:0]
	e.runs = append(e.runs, merged)
	e.stats.Compactions++
	e.stats.CompactedBytes += uint64(inBytes)
}

// Crash kills the process: the memtable, the resident index and the
// un-fsynced WAL tail are lost; the sorted runs and the fsynced WAL
// prefix survive. The engine is unusable until Recover.
func (e *LSMEngine) Crash() {
	e.crashed = true
	e.stats.Crashes++
	e.stats.LostRecords += e.pendingRecs
	e.pendingRecs = 0
	e.wal.crash()
	e.mem = make(map[string]Cell)
	e.memBytes, e.totalBytes = 0, 0
	e.keys.reset()
	clear(e.resident)
}

// Recover rebuilds the engine from durable state: the key list, the
// resident index and the size accounting are recomputed from the runs
// (oldest first, so each key ends on its newest run's entry), then the
// durable WAL prefix is replayed record by record into a fresh
// memtable/WAL, stopping at the first torn or corrupt record. Replayed
// mutations go through the normal Apply path (minus the operation
// counters), so they update the index and are re-logged and re-synced —
// the recovered state is durable again when Recover returns. Recover is
// only meaningful after Crash; on a running engine it is a no-op
// (re-running it would duplicate the key list and discard the durable
// WAL).
func (e *LSMEngine) Recover() RecoverStats {
	if !e.crashed {
		return RecoverStats{}
	}
	e.crashed = false
	e.stats.Replays++
	rs := RecoverStats{RunsLoaded: len(e.runs)}

	for i := range e.runs {
		rs.RunEntries += len(e.runs[i].entries)
		for _, ent := range e.runs[i].entries {
			if _, ok := e.resident[ent.key]; !ok {
				e.keys.add(ent.key)
			}
			e.resident[ent.key] = residentEntry{version: ent.cell.Version, size: uint32(ent.cell.Size())}
		}
	}
	for _, r := range e.resident {
		e.totalBytes += int64(r.size)
	}

	// Replay the durable WAL prefix through the normal apply path.
	log := append([]byte(nil), e.wal.durable()...)
	e.wal.reset()
	e.pendingRecs = 0
	e.replaying = true
	off := 0
	for off < len(log) {
		key, cell, n, err := decodeWALRecord(log, off)
		if err != nil {
			// Torn or corrupt record: keep the consistent prefix.
			rs.TornTail = true
			break
		}
		e.Apply(key, cell)
		rs.WALRecords++
		rs.WALBytes += uint64(n)
		off += n
	}
	e.replaying = false
	e.sync()
	rs.Keys = e.keys.count()
	return rs
}

// Close releases the WAL file (no-op for the in-memory log).
func (e *LSMEngine) Close() error { return e.wal.close() }
