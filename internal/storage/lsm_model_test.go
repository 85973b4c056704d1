package storage

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/ring"
)

// referenceCompact is the map-and-sort compaction the engine used before
// its merge compaction: collect the newest version of every key across
// all runs in a map, sort the keys, and rebuild one run. It is kept here
// only as the reference the merge compaction must reproduce.
func referenceCompact(runs []run) run {
	total := 0
	for i := range runs {
		total += len(runs[i].entries)
	}
	winners := make(map[string]Cell, total)
	for i := range runs { // oldest → newest; newer versions supersede
		for _, ent := range runs[i].entries {
			if old, ok := winners[ent.key]; !ok || ent.cell.Version.After(old.Version) {
				winners[ent.key] = ent.cell
			}
		}
	}
	keys := make([]string, 0, len(winners))
	for k := range winners {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	merged := run{entries: make([]runEntry, 0, len(keys))}
	for _, k := range keys {
		c := winners[k]
		merged.entries = append(merged.entries, runEntry{key: k, cell: c})
		merged.bytes += int64(c.Size())
	}
	return merged
}

// sealRun builds the run a flush of mem would seal.
func sealRun(mem map[string]Cell) run {
	var r run
	for k, c := range mem {
		r.entries = append(r.entries, runEntry{key: k, cell: c})
		r.bytes += int64(c.Size())
	}
	sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].key < r.entries[j].key })
	return r
}

func sameCell(a, b Cell) bool {
	return a.Version == b.Version && a.Tombstone == b.Tombstone && bytes.Equal(a.Value, b.Value)
}

func sameRun(a, b run) bool {
	return a.bytes == b.bytes && sameEntries(a.entries, b.entries)
}

func sameEntries(a, b []runEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key || !sameCell(a[i].cell, b[i].cell) {
			return false
		}
	}
	return true
}

// lsmModel is the reference the LSM engine is checked against: a plain
// map of resident cells under last-write-wins, plus the accepted writes
// the WAL has not synced yet (what a crash loses).
type lsmModel struct {
	cells    map[string]Cell
	durable  map[string]Cell
	unsynced []runEntry
	rejected uint64
}

func (m *lsmModel) apply(key string, c Cell) bool {
	if old, ok := m.cells[key]; ok && !c.Version.After(old.Version) {
		m.rejected++
		return false
	}
	m.cells[key] = c
	m.unsynced = append(m.unsynced, runEntry{key: key, cell: c})
	return true
}

// synced folds every write up to the engine's sync point into the
// durable state, leaving the last pending writes unsynced.
func (m *lsmModel) synced(pending uint64) {
	n := len(m.unsynced) - int(pending)
	for _, w := range m.unsynced[:n] {
		m.durable[w.key] = w.cell
	}
	m.unsynced = append(m.unsynced[:0], m.unsynced[n:]...)
}

func (m *lsmModel) crash() {
	m.cells = make(map[string]Cell, len(m.durable))
	for k, c := range m.durable {
		m.cells[k] = c
	}
	m.unsynced = m.unsynced[:0]
}

// TestLSMMatchesReferenceModel drives the LSM engine through random
// sequences of Apply, Delete, Flush, Crash, Recover, Snapshot and
// SnapshotRanges — out-of-order versions, tombstones and equal-version
// re-applies included — and checks it against a plain map after every
// step: each Apply's return value, Get, Peek, Len, Bytes and Keys, the
// resident index against Peek for every key, and the snapshots' cells.
// Every compaction a step triggers is checked against referenceCompact:
// the merged run and the Rejected, RunEntries, Compactions and
// CompactedBytes counters. Compactions inside Recover's replay are
// covered by the state checks only.
func TestLSMMatchesReferenceModel(t *testing.T) {
	ids := make([]netsim.NodeID, 4)
	for i := range ids {
		ids[i] = netsim.NodeID(i)
	}
	rg := ring.New(ids, 8, 3)
	var keys []string
	for i := 0; i < 24; i++ {
		keys = append(keys, fmt.Sprintf("key%02d", i))
	}
	checked := 0
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		opts := Options{
			FlushLimit: int64(64 + rng.IntN(448)),
			SyncBytes:  []int64{0, 96, 1 << 30}[rng.IntN(3)],
			MaxRuns:    2 + rng.IntN(3),
		}
		e := NewLSMEngine(opts)
		m := &lsmModel{cells: map[string]Cell{}, durable: map[string]Cell{}}
		var history []runEntry // applied cells, for equal-version re-applies
		for step := 0; step < 400; step++ {
			preRuns := append([]run(nil), e.runs...)
			preMem := make(map[string]Cell, len(e.mem))
			for k, c := range e.mem {
				preMem[k] = c
			}
			pre := e.Stats()
			sealed := false // the step flushed preMem (plus any accepted write)
			var op string
			switch p := rng.IntN(100); {
			case p < 60:
				key := keys[rng.IntN(len(keys))]
				var c Cell
				if len(history) > 0 && rng.IntN(8) == 0 {
					// Equal version, possibly another value: must lose.
					h := history[rng.IntN(len(history))]
					key, c = h.key, Cell{Version: h.cell.Version, Value: []byte("dup")}
				} else {
					// A narrow timestamp window keeps versions out of order.
					c = Cell{
						Version: Version{Timestamp: time.Duration(step/4 + rng.IntN(16)), Seq: rng.Uint64N(4)},
						Value:   bytes.Repeat([]byte{byte('a' + step%26)}, rng.IntN(40)),
					}
				}
				op = fmt.Sprintf("Apply(%s, %v)", key, c.Version)
				want := m.apply(key, c)
				if got := e.Apply(key, c); got != want {
					t.Fatalf("seed %d step %d: %s = %v, model says %v", seed, step, op, got, want)
				}
				if want {
					history = append(history, runEntry{key: key, cell: c})
					preMem[key] = c
				}
				sealed = true
			case p < 72:
				key := keys[rng.IntN(len(keys))]
				v := Version{Timestamp: time.Duration(step/4 + rng.IntN(16)), Seq: rng.Uint64N(4)}
				op = fmt.Sprintf("Delete(%s, %v)", key, v)
				want := m.apply(key, Cell{Version: v, Tombstone: true})
				if got := e.Delete(key, v); got != want {
					t.Fatalf("seed %d step %d: %s = %v, model says %v", seed, step, op, got, want)
				}
				if want {
					preMem[key] = Cell{Version: v, Tombstone: true}
				}
				sealed = true
			case p < 80:
				op = "Flush"
				e.Flush()
				sealed = true
			case p < 86:
				op = "Snapshot"
				checkSnapshot(t, drain(e.Snapshot()), m.cells, nil)
				sealed = true
			case p < 92:
				op = "SnapshotRanges"
				ranges := rg.Ranges(ids[rng.IntN(len(ids))])
				checkSnapshot(t, drain(e.SnapshotRanges(ranges)), m.cells, ranges)
				sealed = true
			case p < 97:
				op = "Crash+Recover"
				lost := uint64(len(m.unsynced))
				m.crash()
				e.Crash()
				e.Recover()
				if got := e.Stats().LostRecords - pre.LostRecords; got != lost {
					t.Fatalf("seed %d step %d: crash lost %d records, model says %d", seed, step, got, lost)
				}
			default:
				op = "Recover (no crash)"
				if rs := e.Recover(); rs != (RecoverStats{}) {
					t.Fatalf("seed %d step %d: Recover without Crash = %+v", seed, step, rs)
				}
			}
			m.synced(e.pendingRecs)

			st := e.Stats()
			if st.Rejected != m.rejected {
				t.Fatalf("seed %d step %d (%s): Rejected = %d, model %d", seed, step, op, st.Rejected, m.rejected)
			}
			if sealed && st.Compactions != pre.Compactions {
				want := referenceCompact(append(preRuns, sealRun(preMem)))
				var inBytes uint64
				for _, r := range preRuns {
					inBytes += uint64(r.bytes)
				}
				inBytes += uint64(sealRun(preMem).bytes)
				if len(e.runs) != 1 || !sameRun(e.runs[0], want) {
					t.Fatalf("seed %d step %d (%s): compacted runs differ from the reference", seed, step, op)
				}
				if st.Compactions != pre.Compactions+1 || st.CompactedBytes != pre.CompactedBytes+inBytes ||
					st.RunEntries != len(want.entries) {
					t.Fatalf("seed %d step %d (%s): compaction stats %+v, reference %d entries %d bytes",
						seed, step, op, st, len(want.entries), inBytes)
				}
				checked++
			}
			checkAgainstModel(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, op), e, m.cells, keys)
		}
	}
	if checked == 0 {
		t.Fatal("no compaction was checked against the reference")
	}
}

// checkAgainstModel compares every observable of e with the model's
// resident cells, and the resident index with Peek for every key.
func checkAgainstModel(t *testing.T, where string, e *LSMEngine, model map[string]Cell, universe []string) {
	t.Helper()
	var wantBytes int64
	wantKeys := make([]string, 0, len(model))
	for k, c := range model {
		wantBytes += int64(c.Size())
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	if e.Len() != len(model) || e.Bytes() != wantBytes {
		t.Fatalf("%s: Len %d Bytes %d, model %d / %d", where, e.Len(), e.Bytes(), len(model), wantBytes)
	}
	if fmt.Sprint(e.Keys()) != fmt.Sprint(wantKeys) {
		t.Fatalf("%s: Keys %v, model %v", where, e.Keys(), wantKeys)
	}
	if len(e.resident) != len(model) {
		t.Fatalf("%s: resident index holds %d keys, model %d", where, len(e.resident), len(model))
	}
	for _, k := range universe {
		want, wantOK := model[k]
		peek, peekOK := e.Peek(k)
		get, getOK := e.Get(k)
		if peekOK != wantOK || getOK != wantOK || (wantOK && (!sameCell(peek, want) || !sameCell(get, want))) {
			t.Fatalf("%s: %s Peek %+v/%v Get %+v/%v, model %+v/%v", where, k, peek, peekOK, get, getOK, want, wantOK)
		}
		idx, idxOK := e.resident[k]
		if idxOK != peekOK || (idxOK && (idx.version != peek.Version || int(idx.size) != peek.Size())) {
			t.Fatalf("%s: %s resident index %+v/%v disagrees with Peek %+v/%v", where, k, idx, idxOK, peek, peekOK)
		}
	}
}

// checkSnapshot compares a drained snapshot with the model's cells,
// restricted to ranges when given.
func checkSnapshot(t *testing.T, got []runEntry, model map[string]Cell, ranges []ring.Range) {
	t.Helper()
	want := make(map[string]Cell)
	for k, c := range model {
		if ranges == nil || ring.RangesContain(ranges, ring.KeyToken(k)) {
			want[k] = c
		}
	}
	if !sameEntries(got, sealRun(want).entries) {
		t.Fatalf("snapshot %v differs from the model %v", got, sealRun(want).entries)
	}
}
