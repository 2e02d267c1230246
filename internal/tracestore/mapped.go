// The zero-copy mmap mode of the disk tier: with SetMapped(true), a
// spill is written in the mappable STBT layout (trace format v2) and a
// later miss maps the file and reinterprets its page-aligned sections
// as trace.Columns views in place — a warm start costs page faults, not
// a decode. See doc.go for the package overview and disk.go for the
// decoding tier both modes share.

package tracestore

import (
	"os"
	"runtime"
	"sync/atomic"

	"stbpu/internal/trace"
)

// SetMapped switches the disk tier (SetDir) into zero-copy mode: spills
// are written in the mappable STBT layout and loads mmap v2 files
// instead of decoding them (v1 files still decode, so the two layouts
// coexist in one directory). On platforms without mmap support the mode
// is accepted but degrades to the decoding path — results are
// identical either way; only the warm-start cost differs. Call before
// the first GetColumns.
//
// Mapped residency is accounted separately from the in-memory budget:
// the kernel owns the pages (clean, evictable under its own memory
// pressure), so a mapped entry charges only fixed bookkeeping overhead
// against the -cache-bytes bound — not the mapped bytes, which would
// double-charge page-cache memory — and Stats.BytesMapped reports the
// currently mapped total. Unmapping is tied to the entry's residency
// AND its readers: the region is released only after the entry is
// evicted and no replay still references the columns (a finalizer holds
// the second reference), so shared read-only views never dangle.
func (s *Store) SetMapped(on bool) {
	s.mu.Lock()
	s.mappedMode = on
	s.mu.Unlock()
}

func (s *Store) isMapped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mappedMode
}

// unmapHook, when set, observes each munmap (tests pin eviction/unmap
// ordering with it). Set before any store is used; called with the
// region size just before the unmap.
var unmapHook func(bytes int)

// mapping owns one mmap'd spill region. Two references exist while the
// columns are resident: the store's (dropped at eviction) and a
// finalizer's on the *trace.Columns viewing the region (dropped when no
// reader can reach the columns anymore). The region unmaps when both
// are gone, so eviction never pulls pages out from under a replay.
type mapping struct {
	data  []byte
	store *Store
	refs  atomic.Int32
}

func (m *mapping) release() {
	if m.refs.Add(-1) != 0 {
		return
	}
	m.store.bytesMapped.Add(-int64(len(m.data)))
	if unmapHook != nil {
		unmapHook(len(m.data))
	}
	munmapBytes(m.data)
}

// mapStatus is loadMapped's three-way outcome.
type mapStatus int

const (
	mapOK      mapStatus = iota // zero-copy columns returned
	mapAbsent                   // no mappable file (missing, or a v1 spill): try the decode path
	mapCorrupt                  // unusable v2 file, error counted: regenerate and rewrite
)

// loadMapped tries to satisfy a miss by mapping the spill file in
// place. A v1 spill is not an error — the caller falls back to the
// decoder — but a v2 file that fails layout checks, key match, or
// structural validation is corrupt: counted like the decode path's
// torn files, and the caller regenerates and rewrites rather than
// retrying a decode of the same bytes.
func (s *Store) loadMapped(k Key) (*trace.Columns, *mapping, mapStatus) {
	data, err := mmapFile(s.diskPath(k))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, mapAbsent // loadDisk counts the miss
		}
		s.noteDiskError()
		return nil, nil, mapCorrupt
	}
	if len(data) >= 5 && data[4] != 2 {
		// A spill in another version (v1 delta stream): not mappable,
		// not corrupt. Unmap and decode instead.
		munmapBytes(data)
		return nil, nil, mapAbsent
	}
	cols, err := trace.MapColumns(data)
	if err != nil || cols.Name != k.Name || cols.Len() != k.Records || cols.Validate() != nil {
		munmapBytes(data)
		s.noteDiskError()
		return nil, nil, mapCorrupt
	}
	m := &mapping{data: data, store: s}
	m.refs.Store(2)
	s.bytesMapped.Add(int64(len(data)))
	runtime.SetFinalizer(cols, func(*trace.Columns) { m.release() })
	return cols, m, mapOK
}

// tryDiskLoad is fill's disk probe, mode-aware: mapped mode maps v2
// spills zero-copy, falls back to decoding v1 spills, and treats a
// corrupt v2 file as a decode-path torn file (regenerate + rewrite,
// without re-reading the known-bad bytes).
func (s *Store) tryDiskLoad(k Key) (*trace.Columns, *mapping, bool) {
	if s.isMapped() && mmapSupported {
		cols, m, status := s.loadMapped(k)
		switch status {
		case mapOK:
			return cols, m, true
		case mapCorrupt:
			return nil, nil, false
		}
		// mapAbsent: fall through to the decoder.
	}
	cols, ok := s.loadDisk(k)
	return cols, nil, ok
}
