// Disk-backed Storage: append-only segment files per relation, a compact
// journal giving the store a persistent version/change log, a symbol-table
// log keeping interned ids stable across restarts. Rows are written with
// WriteAt and read in place through a shared read-only mapping of the
// segment, so a read is a slice expression: no system call, no copy, no
// cache. See doc/STORAGE.md for the layout and the durability contract.
//
// On-disk layout (all integers little-endian):
//
//	MANIFEST     "mpq-edb v1\n" — format guard.
//	syms.log     repeated [uvarint len][bytes]: interned symbols in id
//	             order, so replaying the log reproduces identical ids.
//	preds.tab    repeated [uvarint len][name][uvarint arity]: predicates
//	             in first-insert order; a predicate's index is its id.
//	journal.log  repeated 8-byte records [uint32 predID][uint32 ordinal]:
//	             one per successful insert, in commit order. The record
//	             count IS the store version, so the statistics epoch and
//	             result-cache version survive a restart for free.
//	seg-<id>.dat fixed-width rows (arity × 4 bytes), append-only; a row's
//	             ordinal is its offset / width.
//	program.rec  the program last loaded over the store (record.go): a
//	             cache that lets an unchanged program skip its replay.
//
// Rows are viewed where they lie, so the store needs a little-endian host
// and a unix mmap; OpenDisk refuses a big-endian one.
//
// Crash safety (against process kill; power-loss durability requires the
// Close-time sync): writes happen segment-first, journal-second, with no
// in-RAM buffering, so the journal never references a row that was not
// fully written. Reopen truncates a torn journal tail to a record
// boundary, truncates every segment to exactly the journaled row count
// (dropping orphan rows from a crash between the two writes), and drops
// torn tail entries of the symbol and predicate logs the same way.
package edb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/symtab"
)

const (
	diskManifest   = "mpq-edb v1\n"
	journalRecSize = 8
)

// DiskStore is the disk-backed Storage: the shared core, whose relations
// take the mapped segment extents as their chunks and so read each
// committed row where it lies. Safe for concurrent readers and for a lone
// writer overlapping readers (the same contract as the in-memory store):
// committed rows are immutable and
// their mappings never move, so a row view outlives the lock it was taken
// under. The core's lock also guards the files and the extent lists, and
// its version equals the committed journal record count.
type DiskStore struct {
	core
	dir string
	// removeOnClose deletes the store directory on Close — the
	// MPQ_STORE=disk temporary-store mode.
	removeOnClose bool

	symsFile      *os.File
	symsOff       int64
	symsPersisted int // symbol ids 1..symsPersisted are on disk
	predsFile     *os.File
	predsOff      int64
	journalFile   *os.File
	rowBuf        []byte     // commitRow's encoding scratch: a row, then a journal record
	segs          []*segment // by predicate id

	// torn reports that the open cut a torn tail off the journal.
	torn bool

	// program is the program record (record.go) read at open or last
	// written; pending is the one SetProgram asked for, written after the
	// next sync.
	program, pending *ProgramRecord

	closed bool
}

// segment is one predicate's segment file and its mappings. Each mapped
// extent is handed to the predicate's relation as its chunks
// (relation.MapExtent), so the rows stay on disk; per row the RAM cost is
// 8 bytes of hash and ≈5 of dedup slot, plus 4 per built index.
type segment struct {
	f     *os.File
	width int // bytes per row: arity × 4 (0 for propositional predicates)
	// extents[e] maps rows [e, e+1)×relation.ExtentRows shared and read-only
	// from when the committed count first reaches them until Close. It may
	// reach past the end of the file; only committed rows are addressed.
	extents [][]byte
}

// OpenDisk opens (creating if necessary) a disk store rooted at dir and
// replays its logs: symbols re-intern in id order, segments are truncated
// to the journaled row counts, and the relations (over the mapped rows),
// statistics sketches, and version are rebuilt. The returned store's
// Version equals the count of successful inserts ever committed, so
// statistics epochs and result-cache keys derived from it survive the
// restart.
func OpenDisk(dir string) (*DiskStore, error) {
	// Rows are viewed in place, so the segment's byte order must be the host's.
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return nil, errors.New("edb: disk store: segments are little-endian and read in place; this host is big-endian")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("edb: disk store: %w", err)
	}
	ds := &DiskStore{dir: dir}
	ds.init()
	if err := ds.open(); err != nil {
		ds.unmap() // its error would only shadow the one that failed the open
		ds.closeFiles()
		return nil, err
	}
	return ds, nil
}

func (ds *DiskStore) open() error {
	if err := ds.checkManifest(); err != nil {
		return err
	}
	if err := ds.loadSyms(); err != nil {
		return err
	}
	if err := ds.loadPreds(); err != nil {
		return err
	}
	if err := ds.replayJournal(); err != nil {
		return err
	}
	ds.loadProgram()
	return nil
}

// Dir returns the store's root directory.
func (ds *DiskStore) Dir() string { return ds.dir }

func (ds *DiskStore) path(name string) string { return filepath.Join(ds.dir, name) }

func (ds *DiskStore) checkManifest() error {
	p := ds.path("MANIFEST")
	b, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(p, []byte(diskManifest), 0o666)
	}
	if err != nil {
		return fmt.Errorf("edb: disk store: %w", err)
	}
	if string(b) != diskManifest {
		return fmt.Errorf("edb: disk store %s: unrecognized manifest %q", ds.dir, string(b))
	}
	return nil
}

// readLog reads a whole log file in one allocation of its size, where
// io.ReadAll would grow a buffer to several times that.
func readLog(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	b := make([]byte, fi.Size())
	n, err := f.ReadAt(b, 0)
	if err == io.EOF {
		err = nil
	}
	return b[:n], err
}

// openLog opens (creating) a log file for read/write.
func (ds *DiskStore) openLog(name string) (*os.File, error) {
	f, err := os.OpenFile(ds.path(name), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("edb: disk store: %w", err)
	}
	return f, nil
}

// loadSyms replays syms.log: every persisted symbol re-interns in id
// order, reproducing the exact ids stored rows were written with. A torn
// tail entry (crash mid-append) is truncated away.
func (ds *DiskStore) loadSyms() error {
	f, err := ds.openLog("syms.log")
	if err != nil {
		return err
	}
	ds.symsFile = f
	b, err := readLog(f)
	if err != nil {
		return fmt.Errorf("edb: disk store: syms.log: %w", err)
	}
	off := 0
	for off < len(b) {
		n, w := binary.Uvarint(b[off:])
		if w <= 0 || off+w+int(n) > len(b) {
			break // torn tail
		}
		// Intern copies a new symbol, so it is handed a view of the log.
		text := unsafe.String(unsafe.SliceData(b[off+w:]), int(n))
		if got, want := ds.syms.Intern(text), symtab.Sym(ds.symsPersisted+1); got != want {
			return fmt.Errorf("edb: disk store: syms.log: duplicate symbol %q (id %d, expected %d)", text, got, want)
		}
		ds.symsPersisted++
		off += w + int(n)
	}
	if off < len(b) {
		if err := f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("edb: disk store: syms.log: %w", err)
		}
	}
	ds.symsOff = int64(off)
	return nil
}

// loadPreds replays preds.tab and opens each predicate's segment file.
func (ds *DiskStore) loadPreds() error {
	f, err := ds.openLog("preds.tab")
	if err != nil {
		return err
	}
	ds.predsFile = f
	b, err := readLog(f)
	if err != nil {
		return fmt.Errorf("edb: disk store: preds.tab: %w", err)
	}
	off := 0
	for off < len(b) {
		n, w := binary.Uvarint(b[off:])
		if w <= 0 || off+w+int(n) > len(b) {
			break
		}
		name := string(b[off+w : off+w+int(n)])
		arity, w2 := binary.Uvarint(b[off+w+int(n):])
		if w2 <= 0 {
			break
		}
		key := ast.PredKey{Name: name, Arity: int(arity)}
		if _, err := ds.addRel(key, false); err != nil {
			return err
		}
		off += w + int(n) + w2
	}
	if off < len(b) {
		if err := f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("edb: disk store: preds.tab: %w", err)
		}
	}
	ds.predsOff = int64(off)
	return nil
}

// addRel registers a predicate and opens its segment, optionally appending
// it to preds.tab (persist=true for new predicates at runtime, false during
// replay).
func (ds *DiskStore) addRel(key ast.PredKey, persist bool) (*pred, error) {
	if key.Arity < 0 || key.Arity > (1<<16) {
		return nil, fmt.Errorf("edb: disk store: bad arity %d for %s", key.Arity, key.Name)
	}
	f, err := ds.openLog(fmt.Sprintf("seg-%d.dat", len(ds.preds)))
	if err != nil {
		return nil, err
	}
	if persist {
		var buf []byte
		buf = binary.AppendUvarint(buf, uint64(len(key.Name)))
		buf = append(buf, key.Name...)
		buf = binary.AppendUvarint(buf, uint64(key.Arity))
		if _, err := ds.predsFile.WriteAt(buf, ds.predsOff); err != nil {
			f.Close()
			return nil, fmt.Errorf("edb: disk store: preds.tab: %w", err)
		}
		ds.predsOff += int64(len(buf))
	}
	ds.segs = append(ds.segs, &segment{f: f, width: key.Arity * 4})
	return ds.register(key), nil
}

// replayJournal truncates the journal to a record boundary, derives each
// relation's committed row count, truncates the segments to match, and
// rebuilds the relations and statistics by one sequential scan per
// segment.
func (ds *DiskStore) replayJournal() error {
	f, err := ds.openLog("journal.log")
	if err != nil {
		return err
	}
	ds.journalFile = f
	b, err := readLog(f)
	if err != nil {
		return fmt.Errorf("edb: disk store: journal.log: %w", err)
	}
	counts := make([]int, len(ds.preds))
	recs := 0
	for off := 0; off+journalRecSize <= len(b); off += journalRecSize {
		predID := binary.LittleEndian.Uint32(b[off:])
		ordinal := binary.LittleEndian.Uint32(b[off+4:])
		// A record referencing an unknown predicate or a non-sequential
		// ordinal marks the torn region of an interrupted write burst:
		// everything from here on is discarded.
		if int(predID) >= len(ds.preds) || int(ordinal) != counts[predID] {
			break
		}
		counts[predID]++
		recs++
	}
	if want := int64(recs * journalRecSize); want != int64(len(b)) {
		ds.torn = true
		if err := f.Truncate(want); err != nil {
			return fmt.Errorf("edb: disk store: journal.log: %w", err)
		}
	}
	ds.version.Store(uint64(recs))
	for i, p := range ds.preds {
		if err := ds.rebuildRel(p, counts[i]); err != nil {
			return err
		}
	}
	return nil
}

// rebuildRel truncates the segment to the journaled row count, maps it, and
// rebuilds the relation and statistics with one pass over the rows.
func (ds *DiskStore) rebuildRel(p *pred, count int) error {
	seg := ds.segs[p.id]
	if err := seg.f.Truncate(int64(count * seg.width)); err != nil {
		return fmt.Errorf("edb: disk store: %s segment: %w", p.key.Name, err)
	}
	if err := seg.mapRows(p, count); err != nil {
		return err
	}
	p.rel.Grow(count)
	for range count {
		p.stats.note(p.rel.Row(p.rel.AppendMapped()))
	}
	return nil
}

// ---- row access -----------------------------------------------------------

// mapRows extends the mappings to cover the first n rows of p and hands
// each new extent to p's relation. An extent of 2^18 rows starts at a
// multiple of arity MiB, which every page size divides. Caller holds the
// write lock (or is opening the store).
func (seg *segment) mapRows(p *pred, n int) error {
	for size := relation.ExtentRows * seg.width; size > 0 && len(seg.extents)*relation.ExtentRows < n; {
		b, err := syscall.Mmap(int(seg.f.Fd()), int64(len(seg.extents))*int64(size), size, syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			return fmt.Errorf("edb: disk store: mapping %s segment: %w", p.key.Name, err)
		}
		seg.extents = append(seg.extents, b)
		p.rel.MapExtent(unsafe.Slice((*symtab.Sym)(unsafe.Pointer(&b[0])), len(b)/4))
	}
	return nil
}

// ---- writes ---------------------------------------------------------------

// Insert commits one row: symbols first (so stored ids always resolve),
// then the segment row, then the journal record, then the relation's
// append of the row where it lies, the statistics and the version bump. IO
// errors panic — the store cannot both report "not inserted" and stay
// consistent with a half-applied write, and every caller treats the EDB as
// infallible memory; a panicking node process is converted to a typed
// query abort by the engine.
func (ds *DiskStore) Insert(key ast.PredKey, t relation.Tuple) bool {
	if len(t) != key.Arity {
		panic(fmt.Sprintf("edb: inserting arity-%d tuple into %s/%d", len(t), key.Name, key.Arity))
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	p := ds.byKey[key]
	if p == nil {
		var err error
		if p, err = ds.addRel(key, true); err != nil {
			panic(err)
		}
	}
	if p.rel.Contains(t) {
		return false
	}
	if err := ds.commitRow(p, t); err != nil {
		panic(err)
	}
	return true
}

func (ds *DiskStore) commitRow(p *pred, t relation.Tuple) error {
	if err := ds.persistSyms(); err != nil {
		return err
	}
	seg, ord := ds.segs[p.id], p.rel.Len()
	if seg.width > 0 {
		buf := ds.rowBuf[:0]
		for _, s := range t {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
		}
		ds.rowBuf = buf
		if _, err := seg.f.WriteAt(buf, int64(ord)*int64(seg.width)); err != nil {
			return fmt.Errorf("edb: disk store: %s segment: %w", p.key.Name, err)
		}
		// Before the journal record: a row that cannot be mapped stays an
		// orphan the next open truncates away.
		if err := seg.mapRows(p, ord+1); err != nil {
			return err
		}
	}
	rec := binary.LittleEndian.AppendUint32(ds.rowBuf[:0], p.id)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(ord))
	ds.rowBuf = rec
	v := ds.version.Load()
	if _, err := ds.journalFile.WriteAt(rec, int64(v)*journalRecSize); err != nil {
		return fmt.Errorf("edb: disk store: journal.log: %w", err)
	}
	ds.committed(p, p.rel.Row(p.rel.AppendMapped()))
	return nil
}

// persistSyms appends every not-yet-persisted symbol to syms.log, in id
// order. Called before a row referencing them is committed, so stored ids
// always resolve after reopen. Rule-only constants ride along — harmless,
// and it keeps the invariant trivially: ids 1..symsPersisted are on disk.
func (ds *DiskStore) persistSyms() error {
	total := ds.syms.Len()
	if ds.symsPersisted >= total {
		return nil
	}
	var buf []byte
	for id := ds.symsPersisted + 1; id <= total; id++ {
		text := ds.syms.String(symtab.Sym(id))
		buf = binary.AppendUvarint(buf, uint64(len(text)))
		buf = append(buf, text...)
	}
	if _, err := ds.symsFile.WriteAt(buf, ds.symsOff); err != nil {
		return fmt.Errorf("edb: disk store: syms.log: %w", err)
	}
	ds.symsOff += int64(len(buf))
	ds.symsPersisted = total
	return nil
}

// ChangesSince reads the journal tail past v and resolves each record's
// row as a view into its segment.
func (ds *DiskStore) ChangesSince(v uint64) []Change {
	cur := ds.version.Load()
	if v >= cur {
		return nil
	}
	// Records up to cur are committed and immutable: the file read needs no
	// lock, only the row views do.
	buf := make([]byte, (cur-v)*journalRecSize)
	if _, err := ds.journalFile.ReadAt(buf, int64(v)*journalRecSize); err != nil {
		panic(fmt.Errorf("edb: disk store: journal.log: %w", err))
	}
	out := make([]Change, 0, cur-v)
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	for i := uint64(0); i < cur-v; i++ {
		predID := binary.LittleEndian.Uint32(buf[i*journalRecSize:])
		ordinal := binary.LittleEndian.Uint32(buf[i*journalRecSize+4:])
		p := ds.preds[predID]
		out = append(out, Change{Seq: v + i + 1, Key: p.key, Row: p.rel.Row(int(ordinal))})
	}
	return out
}

// Sync flushes all store files to stable storage, then writes the program
// record SetProgram asked for.
func (ds *DiskStore) Sync() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.syncLocked(); err != nil {
		return err
	}
	return ds.writeProgram()
}

func (ds *DiskStore) syncLocked() error {
	var first error
	sync := func(f *os.File) {
		if f != nil {
			if err := f.Sync(); err != nil && first == nil {
				first = err
			}
		}
	}
	sync(ds.symsFile)
	sync(ds.predsFile)
	for _, seg := range ds.segs {
		sync(seg.f)
	}
	sync(ds.journalFile) // last: a synced journal record implies synced rows
	return first
}

// Close syncs, writes a pending program record, unmaps every segment and
// closes every file; row views taken
// from the store die with it. Closing twice is harmless. Temporary stores
// (MPQ_STORE=disk) also remove their directory.
func (ds *DiskStore) Close() error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return nil
	}
	ds.closed = true
	err := ds.syncLocked()
	if err == nil {
		err = ds.writeProgram()
	}
	if uerr := ds.unmap(); err == nil {
		err = uerr
	}
	ds.mu.Unlock()
	runtime.SetFinalizer(ds, nil)
	ds.closeFiles()
	if ds.removeOnClose {
		os.RemoveAll(ds.dir)
	}
	return err
}

// unmap releases every segment mapping, returning the first failure.
func (ds *DiskStore) unmap() error {
	var first error
	for id, seg := range ds.segs {
		for _, b := range seg.extents {
			if err := syscall.Munmap(b); err != nil && first == nil {
				first = fmt.Errorf("edb: disk store: unmapping %s segment: %w", ds.preds[id].key.Name, err)
			}
		}
		seg.extents = nil
	}
	return first
}

func (ds *DiskStore) closeFiles() {
	for _, f := range []*os.File{ds.symsFile, ds.predsFile, ds.journalFile} {
		if f != nil {
			f.Close()
		}
	}
	for _, seg := range ds.segs {
		seg.f.Close()
	}
}
