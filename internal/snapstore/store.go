// Package snapstore is the warm-state checkpoint store behind the
// snapshot tier: encoded predictor state (sim.Snapshotter bytes), keyed
// by model fingerprint, workload, trace length, and record offset, held
// in a byte-bounded LRU with an optional persistent disk tier.
//
// The store holds bytes, not live models — it sits below internal/sim in
// the dependency order, so the replay scheduler can hand snapshots to
// exec workers and remote fleets exactly as it ships traces. Keys carry
// the full trace length as well as the offset because phased workloads
// rescale their phase boundaries with the record budget: the prefix
// [0,k) of an n-record phased trace is NOT the prefix of an m-record one
// (plain presets are prefix-stable, but the key must be safe for every
// workload).
//
// Everything is safe for concurrent use. Like tracestore, disk problems
// never fail a lookup: an unreadable or corrupt spill counts an error
// and reads as a miss, and the caller falls back to replay.
package snapstore

import (
	"container/list"
	"sync"
)

// Key identifies one checkpoint.
type Key struct {
	// Model is the model-configuration fingerprint (sim.Fingerprint):
	// snapshots are interchangeable only between identically configured
	// models, seed included.
	Model string
	// Workload is the workload name (spec names embed a content hash).
	Workload string
	// Records is the full trace length the snapshot was captured from.
	Records int
	// Offset is how many records were replayed before capture.
	Offset int
}

// DefaultMaxBytes bounds stores whose creator does not choose a budget.
// Encoded model state is a few hundred KB at worst (the 64KB TAGE-SC-L
// lineup), so the default comfortably holds every phase boundary of a
// full suite run.
const DefaultMaxBytes = 128 << 20

// entryOverheadBytes charges each entry for map/list/header overhead so
// a many-tiny-snapshots workload still respects the bound.
const entryOverheadBytes = 192

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// DiskHits counts misses satisfied by a spilled checkpoint file;
	// DiskMisses counts misses that found no usable spill; DiskWrites
	// counts spill files actually written (a put whose bytes are already
	// on disk writes none); DiskErrors counts unreadable/corrupt
	// spills and failed writes (all fall back gracefully, never failing
	// a lookup).
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	DiskMisses uint64 `json:"disk_misses,omitempty"`
	DiskWrites uint64 `json:"disk_writes,omitempty"`
	DiskErrors uint64 `json:"disk_errors,omitempty"`
	// Bytes is the current resident size; MaxBytes the configured bound.
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// Store is the checkpoint cache. The zero value is not usable; construct
// with New. All methods are safe for concurrent use.
type Store struct {
	maxBytes int64

	mu      sync.Mutex
	dir     string // disk tier root; "" disables the tier
	entries map[Key]*list.Element
	lru     *list.List // front = most recent; values are *entry
	bytes   int64

	hits, misses, puts, evictions                uint64
	diskHits, diskMisses, diskWrites, diskErrors uint64
}

type entry struct {
	key  Key
	data []byte
}

// New builds a store bounded to maxBytes of resident checkpoint data
// (maxBytes <= 0 means DefaultMaxBytes).
func New(maxBytes int64) *Store {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{
		maxBytes: maxBytes,
		entries:  map[Key]*list.Element{},
		lru:      list.New(),
	}
}

// Get returns the checkpoint for k, consulting memory first and then the
// disk tier (promoting a disk hit into memory). The returned bytes are
// shared and must be treated as read-only.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.hits++
		s.lru.MoveToFront(el)
		data := el.Value.(*entry).data
		s.mu.Unlock()
		return data, true
	}
	s.misses++
	dir := s.dir
	s.mu.Unlock()

	if dir == "" {
		return nil, false
	}
	data, ok := s.loadDisk(k)
	if !ok {
		return nil, false
	}
	s.insert(k, data)
	return data, true
}

// Put stores a checkpoint, spilling it to the disk tier when one is
// configured. The store keeps a reference to data; callers must not
// mutate it afterwards.
func (s *Store) Put(k Key, data []byte) {
	s.mu.Lock()
	s.puts++
	dir := s.dir
	s.mu.Unlock()
	s.insert(k, data)
	if dir != "" {
		s.spill(k, data)
	}
}

// insert admits (or refreshes) an in-memory entry and evicts past the
// budget.
func (s *Store) insert(k Key, data []byte) {
	charge := int64(len(data)) + entryOverheadBytes
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		// Deterministic fills make replacement a no-op byte-wise, but
		// refresh the slice anyway and re-charge in case a caller uses
		// custom keys.
		e := el.Value.(*entry)
		s.bytes += charge - (int64(len(e.data)) + entryOverheadBytes)
		e.data = data
		s.lru.MoveToFront(el)
	} else {
		s.entries[k] = s.lru.PushFront(&entry{key: k, data: data})
		s.bytes += charge
	}
	for s.bytes > s.maxBytes {
		back := s.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, victim.key)
		s.bytes -= int64(len(victim.data)) + entryOverheadBytes
		s.evictions++
	}
}

// Len reports how many checkpoints are resident in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:       s.hits,
		Misses:     s.misses,
		Puts:       s.puts,
		Evictions:  s.evictions,
		DiskHits:   s.diskHits,
		DiskMisses: s.diskMisses,
		DiskWrites: s.diskWrites,
		DiskErrors: s.diskErrors,
		Bytes:      s.bytes,
		MaxBytes:   s.maxBytes,
	}
}
