package edb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/ast"
)

// The program record (program.rec) remembers the program last loaded over a
// disk store, so that a reopen with byte-identical source can skip reading
// the program's facts again: they are already rows of the store. It is a
// cache, never a second source of truth — a record that is missing,
// unreadable, fails its checksum, or vouches for more journal than the
// store recovered is ignored, and the loader falls back to a full load.
//
// Layout (integers little-endian):
//
//	"mpq-program v1\n"
//	[32]byte   SHA-256 of the program source
//	uint64     Version: the store version at which every program fact was committed
//	uvarint n, then n × [uvarint len][name][uvarint arity]: the fact predicates
//	uvarint len, then the rules rendered in source syntax
//	uint32     CRC-32C of everything before it
const (
	programRecFile  = "program.rec"
	programRecMagic = "mpq-program v1\n"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ProgramRecord describes the program last loaded over a disk store.
type ProgramRecord struct {
	// Hash is the SHA-256 of the program source.
	Hash [32]byte
	// Version is the store version at which every fact of the program had
	// been committed: the journal up to it holds them all.
	Version uint64
	// Facts lists the predicates the program gives facts for — the ones no
	// rule may define.
	Facts []ast.PredKey
	// Rules is the program's rules rendered in source syntax.
	Rules string
}

func (rec *ProgramRecord) encode() []byte {
	b := append([]byte(programRecMagic), rec.Hash[:]...)
	b = binary.LittleEndian.AppendUint64(b, rec.Version)
	b = binary.AppendUvarint(b, uint64(len(rec.Facts)))
	for _, k := range rec.Facts {
		b = binary.AppendUvarint(b, uint64(len(k.Name)))
		b = append(b, k.Name...)
		b = binary.AppendUvarint(b, uint64(k.Arity))
	}
	b = binary.AppendUvarint(b, uint64(len(rec.Rules)))
	b = append(b, rec.Rules...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// decodeProgram parses a record file, returning nil for anything but a
// whole record with an intact checksum.
func decodeProgram(b []byte) *ProgramRecord {
	head := len(programRecMagic) + 32 + 8
	if len(b) < head+4 || string(b[:len(programRecMagic)]) != programRecMagic {
		return nil
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil
	}
	rec := &ProgramRecord{Version: binary.LittleEndian.Uint64(body[head-8:])}
	copy(rec.Hash[:], body[len(programRecMagic):])
	off := head
	// str reads one uvarint-prefixed string of body.
	str := func() (string, bool) {
		n, w := binary.Uvarint(body[off:])
		if w <= 0 || n > uint64(len(body)-off-w) {
			return "", false
		}
		off += w + int(n)
		return string(body[off-int(n) : off]), true
	}
	n, w := binary.Uvarint(body[off:])
	if w <= 0 || n > uint64(len(body)-off) {
		return nil
	}
	off += w
	for range n {
		name, ok := str()
		if !ok {
			return nil
		}
		arity, w := binary.Uvarint(body[off:])
		if w <= 0 || arity > 1<<16 {
			return nil
		}
		off += w
		rec.Facts = append(rec.Facts, ast.PredKey{Name: name, Arity: int(arity)})
	}
	rules, ok := str()
	if !ok || off != len(body) {
		return nil
	}
	rec.Rules = rules
	return rec
}

// loadProgram reads the record file at open. A missing or unreadable file
// is no record.
func (ds *DiskStore) loadProgram() {
	if b, err := os.ReadFile(ds.path(programRecFile)); err == nil {
		ds.program = decodeProgram(b)
	}
}

// Program returns the record of the program last loaded over the store, if
// it can be trusted: it was read whole at open, the open repaired no torn
// journal tail, and the recovered journal reaches the version the record
// vouches for.
func (ds *DiskStore) Program() (*ProgramRecord, bool) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	rec := ds.program
	if rec == nil || ds.torn || rec.Version > ds.version.Load() {
		return nil, false
	}
	return rec, true
}

// SetProgram replaces the store's program record. The old record file is
// removed at once, so it never outlives a load it does not describe; rec,
// when non-nil, is written by the next Sync or Close, after the sync that
// makes the rows it vouches for durable.
func (ds *DiskStore) SetProgram(rec *ProgramRecord) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.program, ds.pending = nil, rec
	if err := os.Remove(ds.path(programRecFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("edb: disk store: %w", err)
	}
	return nil
}

// writeProgram writes the pending record, replacing the file by rename so
// a reader sees the old record or the new one. It is not synced: a record
// lost or torn by a power cut fails its checksum and costs one full load.
// Caller holds the write lock, after a successful sync.
func (ds *DiskStore) writeProgram() error {
	if ds.pending == nil {
		return nil
	}
	tmp := ds.path(programRecFile + ".tmp")
	if err := os.WriteFile(tmp, ds.pending.encode(), 0o666); err != nil {
		return fmt.Errorf("edb: disk store: %w", err)
	}
	if err := os.Rename(tmp, ds.path(programRecFile)); err != nil {
		return fmt.Errorf("edb: disk store: %w", err)
	}
	ds.program, ds.pending = ds.pending, nil
	return nil
}
