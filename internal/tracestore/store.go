// The Store implementation: LRU bookkeeping, singleflight generation,
// columnar residency, and stats (see doc.go for the package overview;
// disk.go holds the persistent tier).

package tracestore

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"stbpu/internal/trace"
	"stbpu/internal/trace/spec"
)

// Key identifies one generated trace.
type Key struct {
	// Name is the workload's canonical name (trace.CanonicalName): a
	// gem5 short name and its full SPEC name share one entry and one
	// spill.
	Name string
	// Records is the trace length.
	Records int
}

// String renders the key as the legacy per-run cache did ("name@records").
func (k Key) String() string { return fmt.Sprintf("%s@%d", k.Name, k.Records) }

// GenFunc materializes the trace for a key in columnar form. It must be
// deterministic: the store may drop and regenerate entries under byte
// pressure, and replay results must not depend on which copy a cell
// observed.
type GenFunc func(name string, records int) (*trace.Columns, trace.Profile, error)

// PresetProfile derives the workload profile for a key without
// generating the trace: a registered spec workload (spec.Register) when
// one owns the name, else the named preset resized to the requested
// record count — exactly the profile PresetGenColumns returns. The disk
// tier needs it: a trace decoded from an STBT spill carries no profile,
// so the store re-derives the (cheap, pure-metadata) profile instead of
// regenerating the records.
func PresetProfile(name string, records int) (trace.Profile, error) {
	if s, ok := spec.Lookup(name); ok {
		return s.Profile(records), nil
	}
	p, err := trace.Preset(name)
	if err != nil {
		return trace.Profile{}, err
	}
	return p.WithRecords(records), nil
}

// PresetGenColumns is the default generator: a registered spec workload
// when one owns the name (its canonical stream, seed 0), else the named
// trace preset resized to the requested record count, generated
// straight into columns. Spec workload names embed a content hash of
// the document, so the disk tier's (name, records) spill keys stay
// collision-free for them too.
func PresetGenColumns(name string, records int) (*trace.Columns, trace.Profile, error) {
	if s, ok := spec.Lookup(name); ok {
		cols, err := s.GenerateColumns(records, 0)
		if err != nil {
			return nil, trace.Profile{}, err
		}
		return cols, s.Profile(records), nil
	}
	p, err := trace.Preset(name)
	if err != nil {
		return nil, trace.Profile{}, err
	}
	p = p.WithRecords(records)
	cols, err := trace.GenerateColumns(p)
	if err != nil {
		return nil, trace.Profile{}, err
	}
	return cols, p, nil
}

// SizeOf reports the resident footprint in bytes of one stored trace.
// The store charges every entry through this hook, so tests can pin
// byte-exact budgets and alternative deployments can charge for
// overheads this package cannot see.
type SizeOf func(cols *trace.Columns) int64

// ExactSize is the default SizeOf: the capacity-exact footprint of the
// columns (trace.Columns.SizeBytes) plus fixed per-entry bookkeeping
// overhead, so the byte budget is respected to the byte.
func ExactSize(cols *trace.Columns) int64 {
	return entryOverheadBytes + cols.SizeBytes()
}

// DefaultMaxBytes bounds stores whose creator does not choose a budget:
// large enough that a QuickScale suite run never evicts, small enough that
// a full-scale sweep cannot hold hundreds of 250k-record traces at once.
const DefaultMaxBytes = 256 << 20

// entryOverheadBytes charges each entry for its map/list/struct/header
// overhead so a pathological many-tiny-traces workload still respects
// the bound.
const entryOverheadBytes = 256

// Stats is a point-in-time snapshot of store counters. Hits+Misses counts
// GetColumns calls; Generations counts actual synth runs (disk-tier
// loads satisfy a miss without a generation). The Disk* counters are
// zero unless a disk tier is configured (SetDir).
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Generations uint64 `json:"generations"`
	Evictions   uint64 `json:"evictions"`
	// DiskHits counts misses satisfied by decoding a spilled STBT file;
	// DiskMisses counts misses that found no usable spill; DiskWrites
	// counts traces spilled; DiskErrors counts unreadable/corrupt spills
	// and failed writes (both fall back to generation, never fail a lookup).
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	DiskMisses uint64 `json:"disk_misses,omitempty"`
	DiskWrites uint64 `json:"disk_writes,omitempty"`
	DiskErrors uint64 `json:"disk_errors,omitempty"`
	// MmapHits counts disk hits satisfied zero-copy by mapping a v2
	// spill (a subset of DiskHits); BytesMapped is the total currently
	// mmap'd. Both are zero unless mapped mode is on (SetMapped).
	MmapHits    uint64 `json:"mmap_hits,omitempty"`
	BytesMapped int64  `json:"bytes_mapped,omitempty"`
	// Bytes is the current resident size; MaxBytes the configured bound.
	// Mapped entries charge only their fixed bookkeeping overhead here
	// (the kernel owns their pages — see SetMapped); their footprint is
	// BytesMapped.
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// Store is the shared cache. The zero value is not usable; construct with
// New. All methods are safe for concurrent use.
type Store struct {
	gen      GenFunc
	maxBytes int64
	// presetGen records that gen is the default PresetGenColumns pipeline —
	// the only generator whose spills the disk tier may trust or
	// produce (SetDir enforces it).
	presetGen bool

	mu         sync.Mutex
	sizeOf     SizeOf
	dir        string // disk tier root; "" disables the tier
	mappedMode bool   // zero-copy disk tier (SetMapped)
	entries    map[Key]*entry
	lru        *list.List // front = most recent; values are *entry
	bytes      int64

	hits, misses, generations, evictions         uint64
	diskHits, diskMisses, diskWrites, diskErrors uint64
	mmapHits                                     uint64
	// bytesMapped is atomic, not mu-guarded: mapping releases run from
	// evictLocked (mu held) and from columns finalizers (no lock).
	bytesMapped atomic.Int64
}

// entry is one cached (or in-flight) trace. The sync.Once gives waiters
// singleflight semantics: the first GetColumns for a key fills (disk load
// or generation), concurrent calls block on the same Once and share the
// result read-only.
type entry struct {
	key  Key
	once sync.Once
	cols *trace.Columns
	prof trace.Profile
	err  error

	// mapped is non-nil when cols are zero-copy views of an mmap'd
	// spill; eviction drops the store's reference to the region.
	mapped *mapping

	bytes int64
	elem  *list.Element // LRU position; nil while generating or after eviction
}

// New builds a store bounded to maxBytes of resident trace data
// (maxBytes <= 0 means DefaultMaxBytes) generating through gen
// (nil means PresetGenColumns).
func New(maxBytes int64, gen GenFunc) *Store {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	presetGen := gen == nil
	if gen == nil {
		gen = PresetGenColumns
	}
	return &Store{
		gen:       gen,
		maxBytes:  maxBytes,
		presetGen: presetGen,
		sizeOf:    ExactSize,
		entries:   map[Key]*entry{},
		lru:       list.New(),
	}
}

// SetSizeOf installs the byte-accounting hook (nil reverts to
// ExactSize). Call before the first GetColumns; existing entries keep
// the charge they were admitted with.
func (s *Store) SetSizeOf(fn SizeOf) {
	if fn == nil {
		fn = ExactSize
	}
	s.mu.Lock()
	s.sizeOf = fn
	s.mu.Unlock()
}

// GetColumns returns the columnar trace for (name, records), generating
// it at most once per residency no matter how many cells ask
// concurrently. A gem5 short name and its full SPEC name are one key
// (trace.CanonicalName), and the columns carry the full name. The
// returned columns are shared and must be treated as read-only.
func (s *Store) GetColumns(name string, records int) (*trace.Columns, trace.Profile, error) {
	key := Key{Name: trace.CanonicalName(name), Records: records}

	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.hits++
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
	} else {
		s.misses++
		e = &entry{key: key}
		s.entries[key] = e
	}
	s.mu.Unlock()

	e.once.Do(func() { s.fill(e) })
	if e.err != nil {
		return nil, trace.Profile{}, e.err
	}
	return e.cols, e.prof, nil
}

// fill materializes one entry: disk tier first (when configured), then
// the generator. It runs outside the store lock — generation is the
// expensive part singleflight exists to amortize.
func (s *Store) fill(e *entry) {
	name, records := e.key.Name, e.key.Records
	if s.Dir() != "" {
		if cols, m, ok := s.tryDiskLoad(e.key); ok {
			if prof, perr := PresetProfile(name, records); perr == nil {
				e.cols, e.prof, e.mapped = cols, prof, m
				s.mu.Lock()
				s.diskHits++
				if m != nil {
					s.mmapHits++
				}
				s.mu.Unlock()
				s.admit(e, false)
				return
			}
			// A spill whose profile cannot be re-derived (a foreign file
			// squatting on a name the preset table does not know) is
			// useless: fall through, and let generation fail the same way.
			if m != nil {
				m.release() // store's reference; the finalizer drops the other
			}
			s.mu.Lock()
			s.diskMisses++
			s.mu.Unlock()
		}
	}
	cols, prof, genErr := s.gen(name, records)
	if genErr != nil {
		e.err = genErr
		s.mu.Lock()
		// Failed generation is not cached: waiters on this entry see
		// the error, the next GetColumns retries with a fresh entry.
		delete(s.entries, e.key)
		s.mu.Unlock()
		return
	}
	e.cols, e.prof = cols, prof
	if s.Dir() != "" {
		s.spill(e.key, e.cols)
	}
	s.admit(e, true)
}

// admit charges a filled entry against the budget and inserts it at the
// front of the LRU.
func (s *Store) admit(e *entry, generated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if generated {
		s.generations++
	}
	e.bytes = s.chargeLocked(e)
	s.bytes += e.bytes
	e.elem = s.lru.PushFront(e)
	s.evictLocked()
}

// chargeLocked is the entry's charge against the in-memory budget. A
// mapped entry's column bytes live in the kernel page cache, already
// bounded by the files on disk — charging them again here would
// double-count and evict the cheapest entries first — so it pays only
// the fixed overhead.
func (s *Store) chargeLocked(e *entry) int64 {
	if e.mapped == nil {
		return s.sizeOf(e.cols)
	}
	return entryOverheadBytes
}

// evictLocked drops least-recently-used entries until the store fits its
// budget. An entry larger than the whole budget is evicted immediately
// after insertion; its caller already holds the pointers it needs.
func (s *Store) evictLocked() {
	for s.bytes > s.maxBytes {
		back := s.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*entry)
		s.lru.Remove(back)
		victim.elem = nil
		delete(s.entries, victim.key)
		s.bytes -= victim.bytes
		s.evictions++
		if m := victim.mapped; m != nil {
			// Drop the store's reference to the mapped region. Readers
			// still holding the columns keep it alive through the
			// finalizer reference; the munmap happens only after both
			// are gone, so eviction never invalidates a view in use.
			victim.mapped = nil
			m.release()
		}
	}
}

// Len reports how many traces are resident.
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
		Hits:        s.hits,
		Misses:      s.misses,
		Generations: s.generations,
		Evictions:   s.evictions,
		DiskHits:    s.diskHits,
		DiskMisses:  s.diskMisses,
		DiskWrites:  s.diskWrites,
		DiskErrors:  s.diskErrors,
		MmapHits:    s.mmapHits,
		BytesMapped: s.bytesMapped.Load(),
		Bytes:       s.bytes,
		MaxBytes:    s.maxBytes,
	}
}
